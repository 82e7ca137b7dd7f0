// Compile-only probe, built by the nodiscard_probe_N ctests with
// -fsyntax-only -Werror=unused-result -DPROBE_CASE=N: each case 1-5
// discards one Status or Result<T> and must be rejected; case 0 uses
// every value in an allowed way and must compile.
#include "core/status.h"

namespace {

cyqr::Status Save() { return cyqr::Status::OK(); }

cyqr::Result<int> Parse() { return 7; }

struct Store {
  cyqr::Status Flush() { return cyqr::Status::OK(); }
};

cyqr::Status Probe(bool retry) {
  Store store;
#if PROBE_CASE == 0
  cyqr::Status saved = Save();            // Assigned.
  if (!store.Flush().ok()) return saved;  // Used in a condition.
  (void)Parse();                          // Discarded on purpose.
  if (retry) return Save();               // Returned.
  return saved;
#elif PROBE_CASE == 1
  Save();  // A bare call.
#elif PROBE_CASE == 2
  store.Flush();  // A member call.
#elif PROBE_CASE == 3
  cyqr::Status::OK();  // A factory.
#elif PROBE_CASE == 4
  if (retry) Save();  // A braceless if body.
#elif PROBE_CASE == 5
  Parse();  // A Result<int>.
#endif
  return cyqr::Status::OK();
}

}  // namespace

int main() { return Probe(false).ok() ? 0 : 1; }
