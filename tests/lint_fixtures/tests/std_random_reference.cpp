// Fixture: clean. Outside src/ the standard library's engine and
// distributions may serve as references to compare sim::rng against.
#include <random>

double reference_draw() {
    std::mt19937_64 gen(20040501);
    std::normal_distribution<double> n(0.0, 1.0);
    return n(gen) + std::generate_canonical<double, 53>(gen);
}
