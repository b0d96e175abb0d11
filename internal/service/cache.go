package service

import (
	"fmt"
	"hash/fnv"
	"sync"

	"gspc/internal/cachesim"
	"gspc/internal/durable"
	"gspc/internal/policy"
	"gspc/internal/stream"
)

// resultCache is a fixed-capacity key/value store whose eviction order is
// delegated to one of the repo's LLC replacement policies: the cache is
// modeled as a single fully-associative set with one way per entry, and
// every Get/Put is translated into the Hit/Fill/Victim callbacks a
// cachesim.Policy expects; a Put into a full cache fills the way Victim
// chose. The simulator's policies thus manage the simulator's own
// results.
type resultCache struct {
	mu     sync.Mutex
	pol    cachesim.Policy
	ways   int
	keys   []string // way -> key ("" = free)
	vals   []*cached
	byKey  map[string]int
	free   []int
	seq    int64
	hits   int64
	misses int64
	// evictions counts entries displaced by the policy; declined counts
	// Puts the policy refused a victim for (possible with bypassing
	// policies), which simply leave the new entry uncached.
	evictions int64
	declined  int64
	// bytes tracks resident result-body bytes, the figure the memory
	// governor accounts this cache at.
	bytes int64
}

// cached is one stored result: the struct for API consumers plus the
// exact JSON bytes of the first computation, so replays are
// byte-identical, and the id of the job that computed it.
type cached struct {
	body  []byte
	runID string
}

// cachePolicies maps the -cache-policy flag values to constructors. Only
// stateless-per-instance baseline policies make sense here; the paper's
// graphics-stream policies key on stream kinds the cache cannot supply.
var cachePolicies = map[string]func() cachesim.Policy{
	"lru":   func() cachesim.Policy { return policy.NewLRU() },
	"nru":   func() cachesim.Policy { return policy.NewNRU() },
	"drrip": func() cachesim.Policy { return policy.NewDRRIP(2) },
}

// CachePolicyNames lists the accepted -cache-policy values.
func CachePolicyNames() []string { return []string{"lru", "nru", "drrip"} }

// newResultCache builds a cache with the given entry capacity; capacity
// <= 0 disables caching (every lookup misses, Put is a no-op).
func newResultCache(capacity int, policyName string) (*resultCache, error) {
	if capacity <= 0 {
		return &resultCache{}, nil
	}
	mk, ok := cachePolicies[policyName]
	if !ok {
		return nil, fmt.Errorf("service: unknown cache policy %q (have %v)", policyName, CachePolicyNames())
	}
	c := &resultCache{
		pol:   mk(),
		ways:  capacity,
		keys:  make([]string, capacity),
		vals:  make([]*cached, capacity),
		byKey: make(map[string]int, capacity),
	}
	for w := capacity - 1; w >= 0; w-- {
		c.free = append(c.free, w)
	}
	c.pol.Reset(1, capacity)
	return c, nil
}

// access synthesizes the stream.Access a policy callback expects for a
// cache key: a stable per-key block address (so revisits look like block
// reuse to the policy) and a monotone sequence number.
func (c *resultCache) access(key string) stream.Access {
	h := fnv.New64a()
	h.Write([]byte(key))
	c.seq++
	return stream.Access{Addr: h.Sum64() << 6, Seq: c.seq, Kind: stream.Texture}
}

// Get returns the cached entry for key, informing the policy of the hit.
func (c *resultCache) Get(key string) (*cached, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ways == 0 {
		c.misses++
		return nil, false
	}
	w, ok := c.byKey[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.pol.Hit(0, w, c.access(key))
	return c.vals[w], true
}

// Replace stores an entry, overwriting a resident key in place: the
// escalation path upgrades a sampled result to its exact twin under
// the sampled key, so Put's first-write-wins rule must not apply. A
// non-resident key falls through to Put semantics.
func (c *resultCache) Replace(key string, v *cached) {
	c.mu.Lock()
	if c.ways != 0 {
		if w, ok := c.byKey[key]; ok {
			c.bytes += int64(len(v.body)) - int64(len(c.vals[w].body))
			c.vals[w] = v
			c.mu.Unlock()
			return
		}
	}
	c.mu.Unlock()
	c.Put(key, v)
}

// Put stores an entry, asking the policy for a victim when full. A
// second Put of a resident key keeps the original value: results are
// deterministic, so the first computation is as good as any later one
// and replays stay byte-identical.
func (c *resultCache) Put(key string, v *cached) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ways == 0 {
		return
	}
	if _, ok := c.byKey[key]; ok {
		return
	}
	a := c.access(key)
	var w int
	if n := len(c.free); n > 0 {
		w = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		w = c.pol.Victim(0, a)
		if w < 0 || w >= c.ways {
			// The policy bypassed the fill; the entry stays uncached.
			c.declined++
			return
		}
		delete(c.byKey, c.keys[w])
		c.evictions++
		c.bytes -= int64(len(c.vals[w].body))
	}
	c.keys[w] = key
	c.vals[w] = v
	c.byKey[key] = w
	c.bytes += int64(len(v.body))
	c.pol.Fill(0, w, a)
}

// Bytes returns the resident result-body bytes, for memory accounting.
func (c *resultCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Export returns every resident entry for snapshotting, in way order
// (stable for a given fill history, though restore order is free to
// differ — the eviction policy state itself is rebuilt, not persisted).
func (c *resultCache) Export() []durable.CacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]durable.CacheEntry, 0, len(c.byKey))
	for w, key := range c.keys {
		if key == "" || c.vals[w] == nil {
			continue
		}
		out = append(out, durable.CacheEntry{Key: key, RunID: c.vals[w].runID, Body: c.vals[w].body})
	}
	return out
}

// Len returns the number of resident entries.
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.byKey)
}

// PolicyName names the eviction policy ("none" when caching is off).
func (c *resultCache) PolicyName() string {
	if c.pol == nil {
		return "none"
	}
	return c.pol.Name()
}

func (c *resultCache) counters() (hits, misses, evictions int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}
