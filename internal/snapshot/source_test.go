package snapshot

import (
	"math"
	"math/rand"
	"testing"
)

// sourceSeeds are the differential seeds: the normalisation edges of
// rngSource.Seed (zero, signs, multiples of 2³¹−1, the zero-seed
// substitute, the int64 extremes) and a spread of arbitrary ones.
func sourceSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, 2, -2,
		int32max, -int32max, 2 * int32max, -2 * int32max, 7 * int32max, -7 * int32max,
		int32max - 1, int32max + 1, -int32max + 1, -int32max - 1,
		math.MaxInt32, math.MinInt32, 1 << 31, -1 << 31,
		seedZero, -seedZero, seedZero + int32max,
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1,
		(math.MaxInt64 / int32max) * int32max, -(math.MaxInt64 / int32max) * int32max,
	}
	rng := rand.New(rand.NewSource(20260101))
	for i := 0; i < 40; i++ {
		seeds = append(seeds, int64(rng.Uint64()))
	}
	return seeds
}

// drawBoth takes draw i from both sources, Int63 or Uint64 by a pattern
// that depends on i and salt, and returns both values.
func drawBoth(s *Source, ref rand.Source64, i, salt int) (got, want uint64) {
	if (i*7+salt)%3 == 0 {
		return uint64(s.Int63()), uint64(ref.Int63())
	}
	return s.Uint64(), ref.Uint64()
}

// TestSourceMatchesMathRand is the differential test of the lazily
// seeded Source against math/rand's own generator: 2,000 draws per seed
// (the register of 607 words wraps more than three times), Int63 and
// Uint64 interleaved, then AdvanceTo rewinding and moving forward across
// the lazy-fill boundaries, and a re-seed mid-stream.
func TestSourceMatchesMathRand(t *testing.T) {
	const draws = 2000
	seeds := sourceSeeds()
	for si, seed := range seeds {
		s := NewSource(seed)
		ref := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < draws; i++ {
			if got, want := drawBoth(s, ref, i, si); got != want {
				t.Fatalf("seed %d draw %d: got %#x, want %#x", seed, i+1, got, want)
			}
		}
		if s.Draws() != draws {
			t.Fatalf("seed %d: Draws() = %d, want %d", seed, s.Draws(), draws)
		}

		ref.Seed(seed)
		want := make([]uint64, draws)
		for i := range want {
			want[i] = ref.Uint64()
		}
		for _, n := range []uint64{1200, 5, 0, 273, 274, 333, 334, 335, 10, 606, 607, 608, draws - 1, 1} {
			s.AdvanceTo(n)
			if s.Draws() != n {
				t.Fatalf("seed %d AdvanceTo(%d): Draws() = %d", seed, n, s.Draws())
			}
			if got := s.Uint64(); got != want[n] {
				t.Fatalf("seed %d AdvanceTo(%d): next draw %#x, want %#x", seed, n, got, want[n])
			}
		}

		// Re-seed mid-stream, while the register is only partly filled,
		// to the next seed of the list.
		s.Seed(seed)
		for i := 0; i < 100+si; i++ {
			s.Uint64()
		}
		next := seeds[(si+1)%len(seeds)]
		s.Seed(next)
		ref.Seed(next)
		for i := 0; i < draws; i++ {
			if got, want := drawBoth(s, ref, i, si+1); got != want {
				t.Fatalf("seed %d re-seeded to %d, draw %d: got %#x, want %#x", seed, next, i+1, got, want)
			}
		}
	}
}

// FuzzSourceMatchesMathRand: for any seed, the first draws values of
// Source and of rand.NewSource agree, Int63 and Uint64 interleaved.
func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range sourceSeeds() {
		f.Add(seed, uint16(1300))
	}
	f.Add(int64(3), uint16(0))
	f.Add(int64(-5), uint16(334))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		s := NewSource(seed)
		ref := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < int(draws); i++ {
			if got, want := drawBoth(s, ref, i, int(seed&7)); got != want {
				t.Fatalf("seed %d draw %d: got %#x, want %#x", seed, i+1, got, want)
			}
		}
	})
}

// BenchmarkSourceSeed measures what a per-job stream costs: building a
// *rand.Rand, seeding it and taking the 20 draws a job typically takes,
// on Source and on math/rand's eagerly seeded source.
func BenchmarkSourceSeed(b *testing.B) {
	var sink uint64
	b.Run("snapshot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := rand.New(NewSource(int64(i)))
			for k := 0; k < 20; k++ {
				sink += r.Uint64()
			}
		}
	})
	b.Run("mathrand", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := rand.New(rand.NewSource(int64(i)))
			for k := 0; k < 20; k++ {
				sink += r.Uint64()
			}
		}
	})
	_ = sink
}
