package sim

import "math/rand"

// SetRNG replaces the simulator's random source, so tests can count the
// draws it makes.
func SetRNG(s *CycleSim, r *rand.Rand) { s.rng = r }
