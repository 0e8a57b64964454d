package spec

import (
	"strings"
	"testing"

	"daelite/internal/phit"
)

const sample = `{
  "mesh": {"width": 3, "height": 3},
  "params": {"wheel": 16},
  "host": {"x": 0, "y": 0},
  "connections": [
    {"name": "video", "src": {"x": 0, "y": 0}, "dst": {"x": 2, "y": 2}, "slotsFwd": 4, "rate": 0.2},
    {"name": "audio", "src": {"x": 1, "y": 0}, "dst": {"x": 1, "y": 2}, "slotsFwd": 1},
    {"name": "bcast", "src": {"x": 1, "y": 1}, "dsts": [{"x": 0, "y": 2}, {"x": 2, "y": 0}], "slotsFwd": 2}
  ]
}`

func TestParseAndBuild(t *testing.T) {
	s, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if s.Params.Wheel != 16 || len(s.Connections) != 3 {
		t.Fatalf("parsed: %+v", s)
	}
	inst, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(inst.Connections) != 3 {
		t.Fatalf("built %d connections", len(inst.Connections))
	}
	video, ok := inst.Connection("video")
	if !ok {
		t.Fatal("named lookup failed")
	}
	p := inst.Platform
	p.NI(video.Spec.Src).Send(video.SrcChannel, 0x51DE0)
	p.Run(64)
	if d, ok := p.NI(video.Spec.Dst).Recv(video.DstChannel); !ok || d.Word != 0x51DE0 {
		t.Fatal("spec-built connection not functional")
	}
	// The multicast connection reaches both destinations.
	bcast, _ := inst.Connection("bcast")
	p.NI(bcast.Spec.Src).Send(bcast.SrcChannel, phit.Word(0xB))
	p.Run(64)
	for _, dn := range bcast.Spec.Dsts {
		if d, ok := p.NI(dn).Recv(bcast.DstChannels[dn]); !ok || d.Word != 0xB {
			t.Fatal("multicast destination missed the word")
		}
	}
	if _, ok := inst.Connection("nope"); ok {
		t.Fatal("phantom name resolved")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	s, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Parse(strings.NewReader(string(out)))
	if err != nil {
		t.Fatal(err)
	}
	if len(s2.Connections) != len(s.Connections) || s2.Mesh != s.Mesh {
		t.Fatal("round trip lost data")
	}
}

func TestValidation(t *testing.T) {
	cases := []string{
		`{"mesh": {"width": 0, "height": 2}, "host": {"x":0,"y":0}}`,
		`{"mesh": {"width": 2, "height": 2}, "host": {"x":5,"y":0}}`,
		`{"mesh": {"width": 2, "height": 2}, "host": {"x":0,"y":0},
		  "connections": [{"src": {"x":0,"y":0}, "dst": {"x":1,"y":1}, "slotsFwd": 0}]}`,
		`{"mesh": {"width": 2, "height": 2}, "host": {"x":0,"y":0},
		  "connections": [{"src": {"x":0,"y":0}, "slotsFwd": 1}]}`, // no dst
		`{"mesh": {"width": 2, "height": 2}, "host": {"x":0,"y":0},
		  "connections": [{"src": {"x":0,"y":0}, "dst": {"x":1,"y":1},
		   "dsts": [{"x":1,"y":0}], "slotsFwd": 1}]}`, // both dst and dsts
		`{"mesh": {"width": 2, "height": 2}, "host": {"x":0,"y":0},
		  "connections": [{"src": {"x":0,"y":9}, "dst": {"x":1,"y":1}, "slotsFwd": 1}]}`,
		`{"mesh": {"width": 2, "height": 2}, "host": {"x":0,"y":0}, "bogus": 1}`,
	}
	for i, c := range cases {
		if _, err := Parse(strings.NewReader(c)); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
	// A spec written for the removed kernel worker pool is rejected by
	// field name, not silently accepted.
	_, err := Parse(strings.NewReader(
		`{"mesh": {"width": 2, "height": 2}, "host": {"x":0,"y":0}, "params": {"workers": 2}}`))
	if err == nil || !strings.Contains(err.Error(), `"workers"`) {
		t.Fatalf("params.workers: err = %v, want an unknown-field error naming it", err)
	}
}

func TestTorusSpec(t *testing.T) {
	s, err := Parse(strings.NewReader(`{
	  "mesh": {"width": 3, "height": 3, "torus": true},
	  "host": {"x": 0, "y": 0},
	  "connections": [{"src": {"x":0,"y":0}, "dst": {"x":2,"y":2}, "slotsFwd": 1}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Wrap links make the corner path 4 links long instead of 6.
	if got := len(inst.Connections[0].Fwd.Paths[0].Path); got != 4 {
		t.Fatalf("torus path = %d links, want 4", got)
	}
}

func TestTopologyKinds(t *testing.T) {
	for _, tc := range []struct {
		json    string
		wantErr bool
	}{
		{`{"mesh": {"kind": "ring", "width": 6}, "host": {"x": 0, "y": 0},
		   "connections": [{"src": {"x": 1, "y": 0}, "dst": {"x": 4, "y": 0}, "slotsFwd": 1}]}`, false},
		{`{"mesh": {"kind": "spidergon", "width": 8}, "host": {"x": 0, "y": 0},
		   "connections": [{"src": {"x": 1, "y": 0}, "dst": {"x": 5, "y": 0}, "slotsFwd": 1}]}`, false},
		{`{"mesh": {"kind": "spidergon", "width": 7}, "host": {"x": 0, "y": 0}}`, true},
		{`{"mesh": {"kind": "hypercube", "width": 8}, "host": {"x": 0, "y": 0}}`, true},
		{`{"mesh": {"kind": "ring", "width": 1}, "host": {"x": 0, "y": 0}}`, true},
	} {
		s, err := Parse(strings.NewReader(tc.json))
		if tc.wantErr {
			if err == nil {
				t.Fatalf("accepted: %s", tc.json)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		inst, err := s.Build()
		if err != nil {
			t.Fatal(err)
		}
		c := inst.Connections[0]
		p := inst.Platform
		p.NI(c.Spec.Src).Send(c.SrcChannel, 0x70B0)
		p.Run(80)
		if d, ok := p.NI(c.Spec.Dst).Recv(c.DstChannel); !ok || d.Word != 0x70B0 {
			t.Fatalf("delivery failed on %s", s.Mesh.Kind)
		}
	}
}

func TestBuildAllocationFailure(t *testing.T) {
	// Demands beyond the wheel fail at Build, not Parse.
	s, err := Parse(strings.NewReader(`{
	  "mesh": {"width": 2, "height": 2},
	  "params": {"wheel": 8},
	  "host": {"x": 0, "y": 0},
	  "connections": [
	    {"src": {"x": 0, "y": 0}, "dst": {"x": 1, "y": 1}, "slotsFwd": 7},
	    {"src": {"x": 0, "y": 0}, "dst": {"x": 1, "y": 0}, "slotsFwd": 7}
	  ]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Build(); err == nil {
		t.Fatal("oversubscribed spec built successfully")
	}
}
