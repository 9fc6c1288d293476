#include "sweep/sweep_spec.h"

#include "util/check.h"

namespace grefar {
namespace sweep {

std::size_t SweepAxis::size() const {
  if (!values.empty() && !labels.empty()) {
    GREFAR_CHECK_MSG(values.size() == labels.size(),
                     "sweep axis '" << name << "' has " << values.size()
                                    << " values but " << labels.size()
                                    << " labels");
  }
  return values.empty() ? labels.size() : values.size();
}

double SweepPoint::value(std::size_t axis) const {
  GREFAR_CHECK(spec != nullptr && axis < spec->axes.size());
  const SweepAxis& a = spec->axes[axis];
  GREFAR_CHECK_MSG(index(axis) < a.values.size(),
                   "sweep axis '" << a.name << "' has no numeric values");
  return a.values[index(axis)];
}

std::size_t SweepSpec::num_legs() const {
  std::size_t n = 1;
  for (const SweepAxis& a : axes) n *= a.size();
  return axes.empty() ? 0 : n;
}

SweepPoint SweepSpec::point(std::size_t leg) const {
  GREFAR_CHECK_MSG(leg < num_legs(), "sweep leg " << leg << " out of range");
  SweepPoint p;
  p.spec = this;
  p.leg = leg;
  p.coords.resize(axes.size());
  // Row-major decode, last axis fastest.
  for (std::size_t a = axes.size(); a-- > 0;) {
    const std::size_t n = axes[a].size();
    p.coords[a] = leg % n;
    leg /= n;
  }
  return p;
}

void SweepSpec::validate() const {
  GREFAR_CHECK_MSG(!axes.empty(), "SweepSpec needs at least one axis");
  for (const SweepAxis& a : axes) {
    GREFAR_CHECK_MSG(a.size() > 0, "sweep axis '" << a.name << "' is empty");
  }
  GREFAR_CHECK_MSG(horizon > 0, "SweepSpec needs a positive horizon");
  GREFAR_CHECK_MSG(scenario != nullptr, "SweepSpec needs a scenario callback");
  GREFAR_CHECK_MSG(plan != nullptr, "SweepSpec needs a plan callback");
}

}  // namespace sweep
}  // namespace grefar
