package admission

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"daelite/internal/alloc"
	"daelite/internal/core"
	"daelite/internal/slots"
	"daelite/internal/topology"
)

// This file defines the JSON wire forms shared by the HTTP API, the
// request journal and the snapshot file. The journal and snapshot only
// ever store *resolved* node IDs, so a replayed record puts the exact
// same demand before the allocator regardless of how the client spelled
// its endpoints.

// NodeRef is a JSON-flexible NI reference: either a bare node ID
// (number) or a mesh coordinate string "x,y" resolved against the
// service's platform.
type NodeRef struct {
	id     topology.NodeID
	coord  bool
	x, y   int
	direct bool
}

// UnmarshalJSON accepts 17 or "2,3". The canonical form, a quoted
// "<digits>,<digits>", is parsed here byte by byte; anything else goes
// through encoding/json and fmt, which decide what it means and how it
// fails.
func (n *NodeRef) UnmarshalJSON(b []byte) error {
	if x, y, ok := parseCoord(b); ok {
		n.x, n.y, n.coord = x, y, true
		return nil
	}
	var num int64
	if err := json.Unmarshal(b, &num); err == nil {
		n.id = topology.NodeID(num)
		n.direct = true
		return nil
	}
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("node ref must be a node ID or \"x,y\": %s", string(b))
	}
	if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d,%d", &n.x, &n.y); err != nil {
		return fmt.Errorf("bad node coordinate %q (want \"x,y\")", s)
	}
	n.coord = true
	return nil
}

// parseCoord parses b as exactly `"<digits>,<digits>"`. A side longer
// than 18 digits is left to the general path, so parseDigits cannot
// overflow.
func parseCoord(b []byte) (x, y int, ok bool) {
	if len(b) < 2 || b[0] != '"' || b[len(b)-1] != '"' {
		return 0, 0, false
	}
	xs, ys, found := bytes.Cut(b[1:len(b)-1], []byte{','})
	if !found {
		return 0, 0, false
	}
	x, okx := parseDigits(xs)
	y, oky := parseDigits(ys)
	return x, y, okx && oky
}

func parseDigits(b []byte) (int, bool) {
	if len(b) == 0 || len(b) > 18 {
		return 0, false
	}
	v := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int(c-'0')
	}
	return v, true
}

// Resolve maps the reference to an NI node of the mesh. Direct IDs are
// validated: a router (or out-of-range) ID is rejected here, before any
// allocator state is touched — connection endpoints are always NIs.
func (n NodeRef) Resolve(m *topology.Mesh) (topology.NodeID, error) {
	if n.direct {
		if n.id < 0 || int(n.id) >= m.NumNodes() {
			return 0, fmt.Errorf("node %d outside the mesh (%d nodes)", n.id, m.NumNodes())
		}
		if m.Node(n.id).Kind != topology.NI {
			return 0, fmt.Errorf("node %d (%s) is not an NI", n.id, m.Node(n.id).Name)
		}
		return n.id, nil
	}
	if !n.coord {
		return 0, fmt.Errorf("empty node ref")
	}
	if n.x < 0 || n.x >= m.Spec.Width || n.y < 0 || n.y >= m.Spec.Height {
		return 0, fmt.Errorf("coordinate %d,%d outside the %dx%d mesh", n.x, n.y, m.Spec.Width, m.Spec.Height)
	}
	return m.NI(n.x, n.y, 0), nil
}

// OpenRequest is the JSON body of POST /v1/connections and POST
// /v1/whatif.
type OpenRequest struct {
	Tenant    string    `json:"tenant"`
	Src       NodeRef   `json:"src"`
	Dst       NodeRef   `json:"dst"`
	Dsts      []NodeRef `json:"dsts,omitempty"`
	SlotsFwd  int       `json:"slots_fwd"`
	SlotsRev  int       `json:"slots_rev,omitempty"`
	Multipath bool      `json:"multipath,omitempty"`
	MaxDetour int       `json:"max_detour,omitempty"`
	Spread    bool      `json:"spread,omitempty"`
	// Trace requests an end-to-end causal trace of this request (root
	// span + pipeline stages) when the service platform has a tracer
	// attached; the reply then carries a per-stage cycle breakdown.
	Trace bool `json:"trace,omitempty"`
}

// Spec resolves the request against the platform's mesh.
func (r *OpenRequest) Spec(m *topology.Mesh) (core.ConnectionSpec, error) {
	spec := core.ConnectionSpec{
		SlotsFwd:  r.SlotsFwd,
		SlotsRev:  r.SlotsRev,
		Multipath: r.Multipath,
		MaxDetour: r.MaxDetour,
		Spread:    r.Spread,
	}
	src, err := r.Src.Resolve(m)
	if err != nil {
		return spec, fmt.Errorf("src: %w", err)
	}
	spec.Src = src
	if len(r.Dsts) > 0 {
		for i, d := range r.Dsts {
			id, err := d.Resolve(m)
			if err != nil {
				return spec, fmt.Errorf("dsts[%d]: %w", i, err)
			}
			spec.Dsts = append(spec.Dsts, id)
		}
		return spec, nil
	}
	dst, err := r.Dst.Resolve(m)
	if err != nil {
		return spec, fmt.Errorf("dst: %w", err)
	}
	spec.Dst = dst
	return spec, nil
}

// WireSpec is the journal/snapshot form of a normalized connection spec:
// resolved node IDs only.
type WireSpec struct {
	Src       topology.NodeID   `json:"src"`
	Dst       topology.NodeID   `json:"dst,omitempty"`
	Dsts      []topology.NodeID `json:"dsts,omitempty"`
	SlotsFwd  int               `json:"fwd"`
	SlotsRev  int               `json:"rev,omitempty"`
	Multipath bool              `json:"multipath,omitempty"`
	MaxDetour int               `json:"max_detour,omitempty"`
	Spread    bool              `json:"spread,omitempty"`
}

func toWireSpec(s core.ConnectionSpec) WireSpec {
	return WireSpec{
		Src: s.Src, Dst: s.Dst, Dsts: s.Dsts,
		SlotsFwd: s.SlotsFwd, SlotsRev: s.SlotsRev,
		Multipath: s.Multipath, MaxDetour: s.MaxDetour, Spread: s.Spread,
	}
}

func (w WireSpec) spec() core.ConnectionSpec {
	return core.ConnectionSpec{
		Src: w.Src, Dst: w.Dst, Dsts: w.Dsts,
		SlotsFwd: w.SlotsFwd, SlotsRev: w.SlotsRev,
		Multipath: w.Multipath, MaxDetour: w.MaxDetour, Spread: w.Spread,
	}
}

// String renders the spec endpoints for reports and events.
func (w WireSpec) String() string {
	if len(w.Dsts) > 0 {
		ds := make([]string, len(w.Dsts))
		for i, d := range w.Dsts {
			ds[i] = fmt.Sprint(d)
		}
		return fmt.Sprintf("%d>{%s}x%d", w.Src, strings.Join(ds, ","), w.SlotsFwd)
	}
	return fmt.Sprintf("%d>%dx%d", w.Src, w.Dst, w.SlotsFwd)
}

// --- Snapshot forms of committed reservations ---

// WirePath is one path of a unicast reservation.
type WirePath struct {
	Links []topology.LinkID `json:"links"`
	Bits  uint64            `json:"bits"`
}

// WireUnicast serializes an alloc.Unicast reservation verbatim.
type WireUnicast struct {
	Src   topology.NodeID `json:"src"`
	Dst   topology.NodeID `json:"dst"`
	Paths []WirePath      `json:"paths"`
}

func toWireUnicast(u *alloc.Unicast) *WireUnicast {
	if u == nil {
		return nil
	}
	w := &WireUnicast{Src: u.Src, Dst: u.Dst}
	for _, pa := range u.Paths {
		w.Paths = append(w.Paths, WirePath{
			Links: append([]topology.LinkID(nil), pa.Path...),
			Bits:  pa.InjectSlots.Bits,
		})
	}
	return w
}

func (w *WireUnicast) unicast(wheel int) *alloc.Unicast {
	u := &alloc.Unicast{Src: w.Src, Dst: w.Dst}
	for _, p := range w.Paths {
		u.Paths = append(u.Paths, alloc.PathAlloc{
			Path:        append(topology.Path(nil), p.Links...),
			InjectSlots: slots.Mask{Bits: p.Bits, Size: wheel},
		})
	}
	return u
}

// WireEdge is one multicast tree link with its depth.
type WireEdge struct {
	Link  topology.LinkID `json:"link"`
	Depth int             `json:"depth"`
}

// WireDest records one destination's path depth (JSON objects cannot key
// on integers, so the map is flattened to a sorted pair list).
type WireDest struct {
	Node  topology.NodeID `json:"node"`
	Depth int             `json:"depth"`
}

// WireMulticast serializes an alloc.Multicast reservation verbatim.
type WireMulticast struct {
	Src   topology.NodeID   `json:"src"`
	Dsts  []topology.NodeID `json:"dsts"`
	Bits  uint64            `json:"bits"`
	Edges []WireEdge        `json:"edges"`
	Dests []WireDest        `json:"dests"`
}

func toWireMulticast(m *alloc.Multicast) *WireMulticast {
	if m == nil {
		return nil
	}
	w := &WireMulticast{
		Src:  m.Src,
		Dsts: append([]topology.NodeID(nil), m.Dsts...),
		Bits: m.InjectSlots.Bits,
	}
	for _, e := range m.Edges {
		w.Edges = append(w.Edges, WireEdge{Link: e.Link, Depth: e.Depth})
	}
	for d, dep := range m.DestDepth {
		w.Dests = append(w.Dests, WireDest{Node: d, Depth: dep})
	}
	sort.Slice(w.Dests, func(i, j int) bool { return w.Dests[i].Node < w.Dests[j].Node })
	return w
}

func (w *WireMulticast) multicast(wheel int) *alloc.Multicast {
	m := &alloc.Multicast{
		Src:         w.Src,
		Dsts:        append([]topology.NodeID(nil), w.Dsts...),
		InjectSlots: slots.Mask{Bits: w.Bits, Size: wheel},
		DestDepth:   make(map[topology.NodeID]int, len(w.Dests)),
	}
	for _, e := range w.Edges {
		m.Edges = append(m.Edges, alloc.TreeEdge{Link: e.Link, Depth: e.Depth})
	}
	for _, d := range w.Dests {
		m.DestDepth[d.Node] = d.Depth
	}
	return m
}
