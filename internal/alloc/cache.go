package alloc

import "daelite/internal/topology"

// pathCache memoizes the graph queries behind admission — simple-path
// enumeration, shortest paths, and distances — so steady-state set-up does
// zero graph search. Each allocator owns its cache.
//
// Invalidation is generation-based: every entry is keyed by the exclusion
// generation it was computed under. Generation 0 means "no links
// excluded"; each ExcludeLink/IncludeLink that leaves links excluded takes
// a fresh generation from nextGen, so entries for an abandoned exclusion
// set are never served again. Stale generations are pruned on the next
// bump.
type pathCache struct {
	paths   map[pathKey]pathEntry
	sp      map[spKey]topology.Path
	dist    map[spKey]int
	nextGen uint64

	hits          uint64
	misses        uint64
	invalidations uint64
	truncations   uint64
}

// pathKey identifies one memoized SimplePathsAvoidingDense enumeration:
// endpoint pair, length bound, enumeration cap, and the exclusion
// generation it avoided.
type pathKey struct {
	src, dst    topology.NodeID
	maxLen, cap int
	gen         uint64
}

type pathEntry struct {
	// paths avoid generation gen's bad links, are ordered (shortest
	// first, lexicographic) and are capped at pathKey.cap.
	// It is immutable and shared: callers must not modify it or the
	// paths inside.
	paths []topology.Path
	// truncated records that the enumeration cap dropped candidates.
	truncated bool
}

// spKey identifies a shortest-path or distance query under one exclusion
// generation.
type spKey struct {
	src, dst topology.NodeID
	gen      uint64
}

// maxCacheEntries bounds each memo map; when a map outgrows it the map is
// reset (entries are recomputable, so this only costs latency).
const maxCacheEntries = 1 << 16

func newPathCache() *pathCache {
	return &pathCache{
		paths: make(map[pathKey]pathEntry),
		sp:    make(map[spKey]topology.Path),
		dist:  make(map[spKey]int),
	}
}

// bumpGen takes a fresh exclusion generation and prunes entries of
// non-zero generations (they belong to the exclusion set being
// superseded; generation-0 entries stay valid forever).
func (c *pathCache) bumpGen() uint64 {
	c.nextGen++
	for k := range c.paths {
		if k.gen != 0 {
			delete(c.paths, k)
			c.invalidations++
		}
	}
	for k := range c.sp {
		if k.gen != 0 {
			delete(c.sp, k)
		}
	}
	for k := range c.dist {
		if k.gen != 0 {
			delete(c.dist, k)
		}
	}
	return c.nextGen
}

// CacheStats is a snapshot of the path cache counters, mirrored into the
// telemetry registry by the platform harvest.
type CacheStats struct {
	Hits          uint64
	Misses        uint64
	Invalidations uint64
	Truncations   uint64
}

// CacheStats returns the path cache counters.
func (a *Allocator) CacheStats() CacheStats {
	c := a.cache
	return CacheStats{Hits: c.hits, Misses: c.misses, Invalidations: c.invalidations, Truncations: c.truncations}
}

// cachedPaths returns the memoized candidate path set from src to dst: the
// first cap simple paths of at most maxLen links that avoid the current
// exclusion set, shortest first and then lexicographic by link ID. Unicast
// passes its MaxPaths as cap, so an entry holds exactly the candidates it
// tries, in one backing array of their own. The exclusions apply before
// the cap, so a repair sees every usable path the cap admits. The result
// is shared and immutable.
func (a *Allocator) cachedPaths(src, dst topology.NodeID, maxLen, cap int) []topology.Path {
	c := a.cache
	key := pathKey{src: src, dst: dst, maxLen: maxLen, cap: cap, gen: a.gen}
	if e, ok := c.paths[key]; ok {
		c.hits++
		if e.truncated {
			c.truncations++
		}
		return e.paths
	}
	c.misses++
	paths, truncated := a.g.SimplePathsAvoidingDense(src, dst, maxLen, cap, a.avoidSet())
	if truncated {
		c.truncations++
	}
	if len(c.paths) >= maxCacheEntries {
		c.paths = make(map[pathKey]pathEntry)
	}
	c.paths[key] = pathEntry{paths: paths, truncated: truncated}
	return paths
}

// cachedDistance returns the memoized minimum hop count from src to dst
// avoiding the current exclusion set (-1 when unreachable).
func (a *Allocator) cachedDistance(src, dst topology.NodeID) int {
	c := a.cache
	key := spKey{src: src, dst: dst, gen: a.gen}
	if d, ok := c.dist[key]; ok {
		c.hits++
		return d
	}
	c.misses++
	d := a.g.DistanceAvoidingDense(src, dst, a.avoidSet())
	if len(c.dist) >= maxCacheEntries {
		c.dist = make(map[spKey]int)
	}
	c.dist[key] = d
	return d
}

// cachedPlainDistance ignores exclusions (generation 0) — the multicast
// destination ordering historically uses raw distances.
func (a *Allocator) cachedPlainDistance(src, dst topology.NodeID) int {
	c := a.cache
	key := spKey{src: src, dst: dst, gen: 0}
	if d, ok := c.dist[key]; ok {
		c.hits++
		return d
	}
	c.misses++
	d := a.g.DistanceAvoidingDense(src, dst, nil)
	if len(c.dist) >= maxCacheEntries {
		c.dist = make(map[spKey]int)
	}
	c.dist[key] = d
	return d
}

// cachedShortestPath returns the memoized minimum-hop path from src to dst
// avoiding the current exclusion set (nil when unreachable). The path is
// shared and immutable.
func (a *Allocator) cachedShortestPath(src, dst topology.NodeID) topology.Path {
	c := a.cache
	key := spKey{src: src, dst: dst, gen: a.gen}
	if p, ok := c.sp[key]; ok {
		c.hits++
		return p
	}
	c.misses++
	p := a.g.ShortestPathAvoidingDense(src, dst, a.avoidSet())
	if len(c.sp) >= maxCacheEntries {
		c.sp = make(map[spKey]topology.Path)
	}
	c.sp[key] = p
	return p
}
