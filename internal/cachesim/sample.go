package cachesim

import "math"

// SetSample configures deterministic set sampling: the cache simulates
// only the LLC sets whose hashed index falls in a 1-in-Ratio bucket and
// skips every access to the rest, scaling counters back up at read-out.
// Selection hashes (Seed, set index) only, so whether a given set index
// is sampled does not depend on the cache geometry: the same seed and
// ratio pick the same indices out of an 8 MB and a 16 MB LLC.
type SetSample struct {
	// Ratio samples one set in Ratio. Values <= 1 disable sampling.
	Ratio int
	// Seed perturbs the selection hash; runs with the same seed and
	// ratio are bit-identical.
	Seed uint64
}

// Enabled reports whether the configuration actually samples.
func (s SetSample) Enabled() bool { return s.Ratio > 1 }

// Selected reports whether set index `set` is in the sampled subset.
func (s SetSample) Selected(set int) bool {
	return sampleHash(s.Seed, set)%uint64(s.Ratio) == 0
}

// sampleHash is the splitmix64 finalizer over seed^set: cheap, well
// mixed, and stable across builds (no map iteration, no FNV tables).
func sampleHash(seed uint64, set int) uint64 {
	z := seed ^ uint64(set)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewSampled constructs a cache that simulates only the sampled subset
// of the geometry's sets. Storage, policy state, and observer indices
// are all in compact sampled-set space: Sets() returns the sampled
// count, so trackers and policies size themselves to the subset and
// memory shrinks proportionally. Addresses still map to sets through
// the full geometry, so a sampled cache sees exactly the accesses the
// corresponding full cache would route to those sets.
func NewSampled(geom Geometry, policy Policy, s SetSample) *Cache {
	if !s.Enabled() {
		return New(geom, policy)
	}
	if err := geom.Validate(); err != nil {
		panic(err)
	}
	total := geom.Sets()
	m := make([]int32, total)
	n := 0
	// Track the minimal-hash set as a deterministic fallback: a ratio
	// larger than the set count can select nothing.
	best, bestH := 0, uint64(math.MaxUint64)
	for i := range m {
		h := sampleHash(s.Seed, i)
		if h%uint64(s.Ratio) == 0 {
			m[i] = int32(n)
			n++
		} else {
			m[i] = -1
			if h < bestH {
				best, bestH = i, h
			}
		}
	}
	if n == 0 {
		m[best] = 0
		n = 1
	}
	c := newCache(geom, policy, n)
	c.sample = s
	c.sampleMap = m
	c.setAcc = make([]int64, n)
	return c
}

// Sampled reports whether the cache is set-sampled.
func (c *Cache) Sampled() bool { return c.sampleMap != nil }

// SampleFactor returns the counter scale factor totalSets/sampledSets
// (1 for an unsampled cache). Multiplying any additive counter by it
// extrapolates the sampled measurement to the full cache.
func (c *Cache) SampleFactor() float64 {
	if c.sampleMap == nil {
		return 1
	}
	return float64(c.indexSets) / float64(c.sets)
}

// SampleReport summarizes a sampled run: how many sets were simulated,
// the scale factor, and the estimated relative standard error of the
// scaled access count under the simple-random-sampling model,
//
//	RSE = sqrt((1-f)/n) * s/mean
//
// over the per-sampled-set access counts (f = sampling fraction,
// n = sampled sets, s = sample standard deviation). Zero when sampling
// is off or the estimate is undefined (n < 2 or no accesses).
type SampleReport struct {
	TotalSets   int     `json:"total_sets"`
	SampledSets int     `json:"sampled_sets"`
	Factor      float64 `json:"factor"`
	RSE         float64 `json:"rse"`
}

// SampleReport computes the report for the accesses replayed so far.
func (c *Cache) SampleReport() SampleReport {
	if c.sampleMap == nil {
		return SampleReport{TotalSets: c.sets, SampledSets: c.sets, Factor: 1}
	}
	r := SampleReport{TotalSets: c.indexSets, SampledSets: c.sets, Factor: c.SampleFactor()}
	n := float64(len(c.setAcc))
	if n < 2 {
		return r
	}
	var sum float64
	for _, v := range c.setAcc {
		sum += float64(v)
	}
	mean := sum / n
	if mean == 0 {
		return r
	}
	var ss float64
	for _, v := range c.setAcc {
		d := float64(v) - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / (n - 1))
	f := n / float64(c.indexSets)
	r.RSE = math.Sqrt((1-f)/n) * sd / mean
	return r
}
