// Package spec defines a declarative, JSON-serializable description of a
// daelite platform and its connections — the input format of the
// dimensioning-and-instantiation flow (the role the Æthereal XML tooling
// plays for the paper's hardware). A Spec can be validated, instantiated
// into a live core.Platform, and have all of its connections opened
// through the real configuration tree.
package spec

import (
	"encoding/json"
	"fmt"
	"io"

	"daelite/internal/core"
	"daelite/internal/topology"
)

// Spec is a complete platform description.
type Spec struct {
	// Mesh dimensions and NI count per router.
	Mesh MeshSpec `json:"mesh"`
	// Params are the hardware parameters; zero values take defaults.
	Params ParamsSpec `json:"params"`
	// Host is the mesh position of the host IP (configuration owner).
	Host Coord `json:"host"`
	// Connections to open at start-of-day.
	Connections []ConnectionSpec `json:"connections"`
}

// MeshSpec mirrors topology.MeshSpec in JSON-friendly form. Kind selects
// the topology family: "mesh" (default), "torus", "ring" or "spidergon";
// ring and spidergon use Width as the router count and ignore Height.
type MeshSpec struct {
	Kind         string `json:"kind,omitempty"`
	Width        int    `json:"width"`
	Height       int    `json:"height,omitempty"`
	NIsPerRouter int    `json:"nisPerRouter,omitempty"`
	Torus        bool   `json:"torus,omitempty"`
}

// ParamsSpec mirrors core.Params; zero fields inherit defaults.
type ParamsSpec struct {
	Wheel          int `json:"wheel,omitempty"`
	SlotWords      int `json:"slotWords,omitempty"`
	NumChannels    int `json:"numChannels,omitempty"`
	SendQueueDepth int `json:"sendQueueDepth,omitempty"`
	RecvQueueDepth int `json:"recvQueueDepth,omitempty"`
	Cooldown       int `json:"cooldown,omitempty"`
}

// Coord addresses an NI by router position and local index.
type Coord struct {
	X  int `json:"x"`
	Y  int `json:"y"`
	NI int `json:"ni,omitempty"`
}

// ConnectionSpec describes one connection request.
type ConnectionSpec struct {
	Name      string  `json:"name,omitempty"`
	Src       Coord   `json:"src"`
	Dst       *Coord  `json:"dst,omitempty"`
	Dsts      []Coord `json:"dsts,omitempty"`
	SlotsFwd  int     `json:"slotsFwd"`
	SlotsRev  int     `json:"slotsRev,omitempty"`
	Multipath bool    `json:"multipath,omitempty"`
	MaxDetour int     `json:"maxDetour,omitempty"`
	// Rate is an optional traffic annotation (words/cycle) used by
	// simulation front-ends; the spec itself does not act on it.
	Rate float64 `json:"rate,omitempty"`
}

// Parse reads a Spec from JSON.
func Parse(r io.Reader) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks structural consistency without building anything.
func (s *Spec) Validate() error {
	switch s.Mesh.Kind {
	case "", "mesh", "torus":
		if s.Mesh.Width < 1 || s.Mesh.Height < 1 {
			return fmt.Errorf("spec: mesh %dx%d invalid", s.Mesh.Width, s.Mesh.Height)
		}
	case "ring":
		if s.Mesh.Width < 2 {
			return fmt.Errorf("spec: ring of %d routers invalid", s.Mesh.Width)
		}
		s.Mesh.Height = 1
	case "spidergon":
		if s.Mesh.Width < 4 || s.Mesh.Width%2 != 0 {
			return fmt.Errorf("spec: spidergon of %d routers invalid (even, >= 4)", s.Mesh.Width)
		}
		s.Mesh.Height = 1
	default:
		return fmt.Errorf("spec: unknown topology kind %q", s.Mesh.Kind)
	}
	nis := s.Mesh.NIsPerRouter
	if nis == 0 {
		nis = 1
	}
	inRange := func(c Coord) error {
		if c.X < 0 || c.X >= s.Mesh.Width || c.Y < 0 || c.Y >= s.Mesh.Height {
			return fmt.Errorf("spec: position (%d,%d) outside %dx%d mesh", c.X, c.Y, s.Mesh.Width, s.Mesh.Height)
		}
		if c.NI < 0 || c.NI >= nis {
			return fmt.Errorf("spec: NI index %d out of range (%d per router)", c.NI, nis)
		}
		return nil
	}
	if err := inRange(s.Host); err != nil {
		return fmt.Errorf("host: %w", err)
	}
	for i, c := range s.Connections {
		if c.SlotsFwd <= 0 {
			return fmt.Errorf("spec: connection %d (%s): slotsFwd must be positive", i, c.Name)
		}
		if err := inRange(c.Src); err != nil {
			return fmt.Errorf("connection %d (%s) src: %w", i, c.Name, err)
		}
		if (c.Dst == nil) == (len(c.Dsts) == 0) {
			return fmt.Errorf("spec: connection %d (%s): exactly one of dst or dsts required", i, c.Name)
		}
		if c.Dst != nil {
			if err := inRange(*c.Dst); err != nil {
				return fmt.Errorf("connection %d (%s) dst: %w", i, c.Name, err)
			}
		}
		for j, d := range c.Dsts {
			if err := inRange(d); err != nil {
				return fmt.Errorf("connection %d (%s) dsts[%d]: %w", i, c.Name, j, err)
			}
		}
	}
	return nil
}

// params resolves the parameter defaults.
func (s *Spec) params() core.Params {
	p := core.DefaultParams()
	if v := s.Params.Wheel; v != 0 {
		p.Wheel = v
	}
	if v := s.Params.SlotWords; v != 0 {
		p.SlotWords = v
	}
	if v := s.Params.NumChannels; v != 0 {
		p.NumChannels = v
	}
	if v := s.Params.SendQueueDepth; v != 0 {
		p.SendQueueDepth = v
	}
	if v := s.Params.RecvQueueDepth; v != 0 {
		p.RecvQueueDepth = v
	}
	if v := s.Params.Cooldown; v != 0 {
		p.Cooldown = v
	}
	return p
}

// Instance is a built platform with its opened connections.
type Instance struct {
	Platform    *core.Platform
	Connections []*core.Connection
	// Names maps connection names (or "conn<i>") to their index.
	Names map[string]int
}

// BuildPlatform instantiates the platform alone — topology, parameters
// and host — without opening any connections. Front-ends that manage
// their own connection lifecycle (phase-structured workloads, chaos
// drivers) start here; Build layers the start-of-day connections on top.
func (s *Spec) BuildPlatform() (*core.Platform, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var m *topology.Mesh
	var err error
	switch s.Mesh.Kind {
	case "ring":
		m, err = topology.NewRing(s.Mesh.Width)
	case "spidergon":
		m, err = topology.NewSpidergon(s.Mesh.Width)
	case "torus":
		m, err = topology.NewMesh(topology.MeshSpec{
			Width: s.Mesh.Width, Height: s.Mesh.Height,
			NIsPerRouter: max1(s.Mesh.NIsPerRouter), Wrap: true,
		})
	default:
		m, err = topology.NewMesh(topology.MeshSpec{
			Width: s.Mesh.Width, Height: s.Mesh.Height,
			NIsPerRouter: max1(s.Mesh.NIsPerRouter), Wrap: s.Mesh.Torus,
		})
	}
	if err != nil {
		return nil, err
	}
	return core.NewPlatform(m, s.params(), m.NI(s.Host.X, s.Host.Y, s.Host.NI))
}

// Build instantiates the platform and opens every connection, driving the
// simulation until the configuration settles.
func (s *Spec) Build() (*Instance, error) {
	p, err := s.BuildPlatform()
	if err != nil {
		return nil, err
	}
	m := p.Mesh
	inst := &Instance{Platform: p, Names: make(map[string]int)}
	for i, c := range s.Connections {
		cs := core.ConnectionSpec{
			Src:       m.NI(c.Src.X, c.Src.Y, c.Src.NI),
			SlotsFwd:  c.SlotsFwd,
			SlotsRev:  c.SlotsRev,
			Multipath: c.Multipath,
			MaxDetour: c.MaxDetour,
		}
		if c.Dst != nil {
			cs.Dst = m.NI(c.Dst.X, c.Dst.Y, c.Dst.NI)
		}
		for _, d := range c.Dsts {
			cs.Dsts = append(cs.Dsts, m.NI(d.X, d.Y, d.NI))
		}
		conn, err := p.Open(cs)
		if err != nil {
			return nil, fmt.Errorf("spec: connection %d (%s): %w", i, c.Name, err)
		}
		name := c.Name
		if name == "" {
			name = fmt.Sprintf("conn%d", i)
		}
		inst.Names[name] = len(inst.Connections)
		inst.Connections = append(inst.Connections, conn)
	}
	if _, err := p.CompleteConfig(5_000_000); err != nil {
		return nil, err
	}
	return inst, nil
}

// Connection returns a named connection.
func (i *Instance) Connection(name string) (*core.Connection, bool) {
	idx, ok := i.Names[name]
	if !ok {
		return nil, false
	}
	return i.Connections[idx], true
}

// Marshal renders the spec as indented JSON.
func (s *Spec) Marshal() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

func max1(v int) int {
	if v < 1 {
		return 1
	}
	return v
}
