// Fixture: raw owning allocation with no NOLINT(cyqr-raw-owning-new).
#include "raw_owning_new_violation.h"

struct Widget {
  int v = 0;
};

Widget* Make() {
  return new Widget();  // violation: raw new
}

void Destroy(Widget* w) {
  delete w;  // violation: raw delete
}
