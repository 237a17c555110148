#include "support/sim_clock.hpp"

#include "support/logging.hpp"

namespace pruner {

const CostConstants&
CostConstants::defaults()
{
    static const CostConstants instance;
    return instance;
}

CostConstants
CostConstants::forDevice(const std::string& device_name)
{
    CostConstants c;
    if (device_name == "Orin-AGX") {
        // Table 1 is calibrated on Orin: 44.4 min / 2,000 trials of
        // measurement (compilation happens off-device there).
        c.measure_per_trial = 1.33;
        c.compile_per_trial = 0.0;
    }
    return c;
}

void
SimClock::charge(CostCategory c, double seconds)
{
    PRUNER_CHECK_MSG(seconds >= 0.0, "negative time charge " << seconds);
    totals_[static_cast<int>(c)] += seconds;
}

double
SimClock::now() const
{
    double sum = 0.0;
    for (double t : totals_) {
        sum += t;
    }
    return sum;
}

double
SimClock::total(CostCategory c) const
{
    return totals_[static_cast<int>(c)];
}

void
SimClock::reset()
{
    totals_.fill(0.0);
}

} // namespace pruner
