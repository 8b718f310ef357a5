// ctaver submit / shutdown / stats: the client side of the ctaverd wire
// protocol (see server.h). One connection per attempt; spec arguments that
// look like paths (contain '/' or end in ".cta") are read locally and
// shipped as inline text, so the daemon always proves the bytes the user
// just edited — never a stale server-side path.
//
// Hardened transport: connects are non-blocking with a deadline, reads and
// writes poll under a per-operation deadline (no block-forever read_line),
// and transport failures on idempotent operations retry with capped
// exponential backoff + jitter. Every op here is idempotent: submit is
// content-addressed (a resubmission replays already-proved obligations from
// the daemon's cache), stats is a pure read, and shutdown of an
// already-draining daemon is a no-op.
//
// submit_specs prints, per submission, a "== <protocol>" header, each
// obligation's verdict line indented four spaces (byte-identical to the
// `ctaver verify` line for that obligation), and the untimed Table-II row
// that ends `ctaver verify`'s report — and returns the CLI exit taxonomy:
// 3 if any submission carried a contained ERROR, else 2 on usage-class
// failures (unknown spec, parse error, connection loss after the retries
// ran out), else 1 on any refuted/inconclusive obligation, else 0. A retry
// restarts its submission's output from the header (the partial stream
// before the failure is void).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace ctaver::svc {

struct ClientOptions {
  /// Deadline for the non-blocking connect (seconds; 0 = block forever).
  double connect_timeout_s = 5;
  /// Per-read/-write deadline once connected (seconds; 0 = block forever).
  /// Generous by default: between events the daemon may be proving.
  double io_timeout_s = 30;
  /// Transport-failure retries after the first attempt. Each retry waits
  /// backoff_base_s * 2^attempt (capped at backoff_cap_s), jittered by
  /// x0.5..1.5 so a herd of clients doesn't re-dogpile a restarted daemon.
  int retries = 2;
  double backoff_base_s = 0.1;
  double backoff_cap_s = 2.0;
};

int submit_specs(const std::string& socket_path,
                 const std::vector<std::string>& specs, std::ostream& out,
                 std::ostream& err, const ClientOptions& copts = {});

/// Sends {"op":"stats"} and prints the stats event's JSON line to `out`.
/// Returns 0, or 2 on connection failure (after retries).
int request_stats(const std::string& socket_path, std::ostream& out,
                  std::ostream& err, const ClientOptions& copts = {});

/// Sends {"op":"shutdown"} and waits for the bye event. Returns 0, or 2 on
/// connection failure (after retries). The daemon drains in-flight
/// submissions before its run() returns.
int request_shutdown(const std::string& socket_path, std::ostream& err,
                     const ClientOptions& copts = {});

}  // namespace ctaver::svc
