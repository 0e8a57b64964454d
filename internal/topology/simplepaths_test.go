package topology

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// referenceSimplePaths is the brute-force definition SimplePathsAvoidingDense
// must reproduce: walk every self-avoiding walk from a of at most maxLen
// links over the non-avoided links, keep those ending at b, sort them
// (shortest first, then lexicographic by link ID) and cut the list at
// limit.
func referenceSimplePaths(g *Graph, a, b NodeID, maxLen, limit int, avoid []bool) ([]Path, bool) {
	var out []Path
	onCur := make([]bool, g.NumNodes())
	cur := make(Path, 0, maxLen)
	var dfs func(n NodeID)
	dfs = func(n NodeID) {
		if n == b {
			out = append(out, append(Path{}, cur...))
			return
		}
		if len(cur) >= maxLen {
			return
		}
		onCur[n] = true
		for _, l := range g.Out(n) {
			if avoid != nil && int(l) < len(avoid) && avoid[l] {
				continue
			}
			to := g.Link(l).To
			if onCur[to] {
				continue
			}
			cur = append(cur, l)
			dfs(to)
			cur = cur[:len(cur)-1]
		}
		onCur[n] = false
	}
	dfs(a)
	sort.SliceStable(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) < len(out[j])
		}
		for k := range out[i] {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	if limit > 0 && len(out) > limit {
		return out[:limit], true
	}
	return out, false
}

// pathsCase is one generated enumeration query.
type pathsCase struct {
	name          string
	g             *Graph
	a, b          NodeID
	maxLen, limit int
	avoid         []bool
}

// randomPathsCase draws a small mesh, torus or ring (1–2 NIs per router),
// a random endpoint pair, a random exclusion set, a length bound from one
// below the distance to three above it, and a cap from {0, 1, 3, 64}.
// Sizes stay small enough for the brute-force reference.
func randomPathsCase(rng *rand.Rand) pathsCase {
	nis := 1 + rng.Intn(2)
	var m *Mesh
	var err error
	var shape string
	switch rng.Intn(3) {
	case 0:
		w, h := 1+rng.Intn(5), 1+rng.Intn(5)
		shape = fmt.Sprintf("mesh%dx%d", w, h)
		m, err = NewMesh(MeshSpec{Width: w, Height: h, NIsPerRouter: nis})
	case 1:
		w, h := 2+rng.Intn(3), 1+rng.Intn(4)
		shape = fmt.Sprintf("torus%dx%d", w, h)
		m, err = NewMesh(MeshSpec{Width: w, Height: h, NIsPerRouter: nis, Wrap: true})
	default:
		n := 2 + rng.Intn(6)
		shape = fmt.Sprintf("ring%d", n)
		if nis == 1 {
			m, err = NewRing(n)
		} else {
			m, err = NewMesh(MeshSpec{Width: n, Height: 1, NIsPerRouter: nis, Wrap: true})
		}
	}
	if err != nil {
		panic(err)
	}
	g := m.Graph
	c := pathsCase{g: g, a: NodeID(rng.Intn(g.NumNodes())), b: NodeID(rng.Intn(g.NumNodes()))}
	if rng.Intn(2) == 0 {
		c.avoid = make([]bool, g.NumLinks())
		p := []float64{0.05, 0.15, 0.3}[rng.Intn(3)]
		for l := range c.avoid {
			c.avoid[l] = rng.Float64() < p
		}
	}
	d := g.DistanceAvoidingDense(c.a, c.b, c.avoid)
	if d < 0 {
		d = rng.Intn(6)
	}
	c.maxLen = d - 1 + rng.Intn(5)
	if c.maxLen < 0 {
		c.maxLen = 0
	}
	c.limit = []int{0, 1, 3, 64}[rng.Intn(4)]
	c.name = fmt.Sprintf("%s/nis%d/%d->%d/maxLen%d/limit%d/avoid%v", shape, nis, c.a, c.b, c.maxLen, c.limit, c.avoid != nil)
	return c
}

// checkAgainstReference fails t unless the enumerator returns exactly the
// reference's paths, in its order, with its truncation flag.
func checkAgainstReference(t *testing.T, c pathsCase) {
	t.Helper()
	got, gotTrunc := c.g.SimplePathsAvoidingDense(c.a, c.b, c.maxLen, c.limit, c.avoid)
	want, wantTrunc := referenceSimplePaths(c.g, c.a, c.b, c.maxLen, c.limit, c.avoid)
	if gotTrunc != wantTrunc || !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: got %d paths (truncated %v), want %d (truncated %v)\ngot  %v\nwant %v",
			c.name, len(got), gotTrunc, len(want), wantTrunc, got, want)
	}
}

func TestSimplePathsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		checkAgainstReference(t, randomPathsCase(rng))
	}
}

func FuzzSimplePaths(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 3, 42, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkAgainstReference(t, randomPathsCase(rand.New(rand.NewSource(seed))))
	})
}

// BenchmarkSimplePaths enumerates with the cap the allocator asks for:
// its default MaxPaths of 8.
func BenchmarkSimplePaths(b *testing.B) {
	torus, err := NewMesh(MeshSpec{Width: 16, Height: 16, NIsPerRouter: 1, Wrap: true})
	if err != nil {
		b.Fatal(err)
	}
	mesh, err := NewMesh(MeshSpec{Width: 8, Height: 8, NIsPerRouter: 1})
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name   string
		m      *Mesh
		a, dst NodeID
		detour int
	}{
		{"torus16/near", torus, torus.NI(0, 0, 0), torus.NI(5, 3, 0), 0},
		{"torus16/far", torus, torus.NI(0, 0, 0), torus.NI(8, 8, 0), 0},
		{"mesh8/detour8", mesh, mesh.NI(0, 0, 0), mesh.NI(7, 7, 0), 8},
	}
	for _, c := range cases {
		maxLen := c.m.Distance(c.a, c.dst) + c.detour
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.m.SimplePathsAvoidingDense(c.a, c.dst, maxLen, 8, nil)
			}
		})
	}
}
