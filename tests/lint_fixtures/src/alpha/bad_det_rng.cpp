// Fixture: must trigger det-rng (and nothing else), once on every line that
// ends in a "fires" marker.
#include <random>  // fires

int nondeterministic_seed() {
    std::random_device rd;  // fires
    return static_cast<int>(rd());
}

// Seeded, but through the standard library's engine and distributions, whose
// algorithms (beyond the engine) the library defines: banned under src/.
double library_defined_draw() {
    std::mt19937_64 gen(20040501);                                 // fires
    std::uniform_int_distribution<long> pick(0, 9);                // fires
    const double u = std::generate_canonical<double, 53>(gen);     // fires
    return u + static_cast<double>(pick(gen));
}
