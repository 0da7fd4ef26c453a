// Package detrand is an analysistest-style fixture for the detrand
// analyzer; want expectations mark the expected findings.
package detrand

import (
	"math/rand"
	"time"
)

// Draw uses the process-wide global stream: flagged.
func Draw() int {
	return rand.Intn(10) // want "global math/rand.Intn"
}

// Shuffle also draws from the global stream: flagged.
func Shuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want "global math/rand.Shuffle"
}

// WallClock seeds from the wall clock: two runs with equal configuration
// diverge. Flagged.
func WallClock() *rand.Rand {
	src := rand.NewSource(time.Now().UnixNano()) // want "time-seeded random source"
	return rand.New(src)
}

// Threaded draws from an injected stream: fine.
func Threaded(rng *rand.Rand) int {
	return rng.Intn(10)
}

// FromConfig constructs an explicitly-seeded source: fine.
func FromConfig(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Suppressed demonstrates a reviewed //mmlint:ignore directive: the finding
// is filtered, so no want expectation here.
func Suppressed() int {
	//mmlint:ignore detrand fixture exercising the suppression path
	return rand.Int()
}

// MapSum accumulates a float in map-iteration order: flagged.
func MapSum(m map[string]float64) float64 {
	sum := 0.0
	for _, v := range m {
		sum += v // want "float sum accumulated in map-iteration order"
	}
	return sum
}

type seg struct{ power float32 }

// MapSumExplicit spells the sum out and accumulates into a field: both
// flagged, whichever side of the + the accumulator is on.
func MapSumExplicit(m map[int]float64, s *seg) float64 {
	total := 0.0
	for k := range m {
		total = total + m[k]    // want "float sum accumulated in map-iteration order"
		s.power = 1 + s.power   // want "float sum accumulated in map-iteration order"
		s.power = float32(m[k]) // plain store: fine
	}
	return total
}

// MapIntSum sums integers, which is exact in any order: fine.
func MapIntSum(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// SliceSum accumulates in slice order, fixed from run to run: fine.
func SliceSum(xs []float64) float64 {
	sum := 0.0
	for _, v := range xs {
		sum += v
	}
	return sum
}

// PerKeySum accumulates into a variable declared inside the map loop, so
// each sum runs over a slice in fixed order: fine.
func PerKeySum(m map[string][]float64, out map[string]float64) {
	for k, xs := range m {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		out[k] = s
	}
}

// SuppressedSum is a reviewed map-order sum: the finding is filtered.
func SuppressedSum(m map[string]float64) float64 {
	sum := 0.0
	for _, v := range m {
		//mmlint:ignore detrand fixture exercising the suppression path
		sum += v
	}
	return sum
}
