package snapshot

import "math/rand"

// Register geometry of math/rand's additive lagged-Fibonacci generator
// (its rngSource) and the MINSTD constants its Seed uses.
const (
	rngLen   = 607
	rngTap   = 273
	rngFresh = rngLen - rngTap // 334: the draws that still read an initial word
	int32max = 1<<31 - 1       // the MINSTD modulus
	minstdA  = 48271           // the MINSTD multiplier of seedrand
	seedZero = 89482311        // the start value rngSource.Seed uses for a zero seed
)

// Source is a rand.Source64 that emits exactly the stream of
// rand.NewSource(seed) and counts its draws, so the stream position can
// be snapshotted and restored as (seed, draws). A *rand.Rand built on it
// emits the identical bit-stream to one built on rand.NewSource(seed):
// code that switches to Source keeps its historical outputs byte for
// byte.
//
// It is math/rand's generator with lazy seeding. rand.NewSource fills
// all 607 register words at once, 1,841 serial MINSTD steps, although a
// per-job stream then draws only a few dozen values. Here Seed does O(1)
// work and a word is filled just before its first read:
//
//   - Word i of the seeded register is x(21+3i)<<40 ^ x(22+3i)<<20 ^
//     x(23+3i) ^ rngCooked[i], where x(n) = x0·48271ⁿ mod (2³¹−1) is the
//     n-th MINSTD state from the normalised seed x0. The jump-ahead
//     identity makes any x(n) one multiply and one mod with the power
//     table minstdPow; it is exactly what n steps of seedrand compute.
//   - Draw k (1-based) of a fresh stream adds word 334−k to word 607−k
//     and writes the sum to word 334−k. For k ≤ 334 word 334−k has not
//     been read yet; for k ≤ 273 neither has word 607−k, and from k = 274
//     on that word holds the sum draw k−273 wrote. After draw 334 every
//     word has been read once, so Uint64 fills those words while
//     draws < 334 and is the plain generator afterwards.
//
// Both Int63 and Uint64 advance the stream by exactly one step, and the
// *rand.Rand wrapper keeps no hidden state across the methods the
// simulator uses, so re-seeding and replaying Draws() steps reproduces
// the generator mid-stream. Variable-draw consumers (ExpFloat64's
// ziggurat rejection loop) are covered for free because counting happens
// at the source, not the distribution.
type Source struct {
	seed  int64 //mlfs:derived construction-time seed; AdvanceTo re-seeds from it before replaying
	draws uint64
	x0    uint64        //mlfs:derived normalised MINSTD start value, a function of seed
	tap   int           //mlfs:derived register cursor, a function of draws
	feed  int           //mlfs:derived register cursor, a function of draws
	vec   [rngLen]int64 //mlfs:derived lag register, a function of (seed, draws)
}

var _ rand.Source64 = (*Source)(nil)

var (
	// minstdPow[n] is 48271ⁿ mod (2³¹−1), for every n seeding reaches.
	minstdPow [21 + 3*rngLen]uint64
	// rngCooked is math/rand's table of seeding constants, read back
	// from the linked toolchain's stream at init.
	rngCooked [rngLen]int64
)

func init() {
	minstdPow[0] = 1
	for n := 1; n < len(minstdPow); n++ {
		minstdPow[n] = minstdPow[n-1] * minstdA % int32max
	}

	// Recover the register rand.NewSource(1) starts from out of its first
	// 607 draws (out[k] is draw k), using the access order above: draw k
	// writes out[k] to word 334−k (mod 607), and a word draw k reads
	// that an earlier draw wrote holds out[k−273].
	ref := rand.NewSource(1).(rand.Source64) //mlfs:allow noclock calibration: reads math/rand's seeding constants once, no stream is drawn from it
	var out [rngLen + 1]int64
	for k := 1; k <= rngLen; k++ {
		out[k] = int64(ref.Uint64())
	}
	var v [rngLen]int64
	for k := rngTap + 1; k <= rngFresh; k++ { // fresh word 334−k plus out[k−273]
		v[rngFresh-k] = out[k] - out[k-rngTap]
	}
	for k := rngFresh + 1; k <= rngLen; k++ { // fresh word 941−k plus out[k−273]
		v[rngLen+rngFresh-k] = out[k] - out[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ { // fresh words 334−k and 607−k, the latter known by now
		v[rngFresh-k] = out[k] - v[rngLen-k]
	}
	// rngCooked is still zero here, so seedWord(1, i) is word i's MINSTD
	// part alone.
	for i := range rngCooked {
		rngCooked[i] = v[i] ^ seedWord(1, i)
	}
}

// seedWord returns word i of the register rngSource.Seed builds from the
// normalised seed x0.
func seedWord(x0 uint64, i int) int64 {
	n := 21 + 3*i
	return int64(x0*minstdPow[n]%int32max)<<40 ^
		int64(x0*minstdPow[n+1]%int32max)<<20 ^
		int64(x0*minstdPow[n+2]%int32max) ^
		rngCooked[i]
}

// NewSource returns a counting source seeded like rand.NewSource(seed).
func NewSource(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Int63 draws the next value, advancing the counter.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() &^ (1 << 63))
}

// Uint64 draws the next value, advancing the counter.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.draws < rngFresh {
		s.vec[s.feed] = seedWord(s.x0, s.feed)
		if s.draws < rngTap {
			s.vec[s.tap] = seedWord(s.x0, s.tap)
		}
	}
	s.draws++
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Seed re-seeds the source and resets the draw counter. It normalises
// the seed the way rngSource.Seed does and fills no register word.
func (s *Source) Seed(seed int64) {
	x := seed % int32max
	if x < 0 {
		x += int32max
	}
	if x == 0 {
		x = seedZero
	}
	s.seed, s.x0 = seed, uint64(x)
	s.tap, s.feed, s.draws = 0, rngFresh, 0
}

// Draws returns how many values have been drawn since seeding.
func (s *Source) Draws() uint64 { return s.draws }

// AdvanceTo fast-forwards the stream to exactly n draws from the seed,
// rewinding (by re-seeding) first if the stream is already past n.
func (s *Source) AdvanceTo(n uint64) {
	if s.draws > n {
		s.Seed(s.seed)
	}
	for s.draws < n {
		s.Uint64()
	}
}
