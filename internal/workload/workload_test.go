package workload

import (
	"math"
	"testing"

	"hotpaths/internal/geom"
	"hotpaths/internal/roadnet"
	"hotpaths/internal/trajectory"
)

func lineNet(t *testing.T) *roadnet.Network {
	t.Helper()
	nodes := []roadnet.Node{
		{ID: 0, P: geom.Pt(0, 0)},
		{ID: 1, P: geom.Pt(100, 0)},
		{ID: 2, P: geom.Pt(200, 0)},
	}
	links := []roadnet.Link{
		{ID: 0, From: 0, To: 1, Class: roadnet.Primary},
		{ID: 1, From: 1, To: 2, Class: roadnet.Primary},
	}
	n, err := roadnet.Build(nodes, links)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func defaultCfg() Config {
	return Config{N: 10, Agility: 1.0, Step: 10, Err: 0, Seed: 1}
}

func TestNewValidation(t *testing.T) {
	net := lineNet(t)
	bad := []Config{
		{N: 0, Agility: 0.5, Step: 1},
		{N: 5, Agility: 0, Step: 1},
		{N: 5, Agility: 1.5, Step: 1},
		{N: 5, Agility: 0.5, Step: 0},
		{N: 5, Agility: 0.5, Step: 1, Err: -1},
		{N: 5, Agility: 0.5, Step: 1, Model: MovementModel(9)},
		{N: 5, Agility: 0.5, Step: 1, StopProb: 1.5},
	}
	for i, cfg := range bad {
		if _, err := New(net, cfg); err == nil {
			t.Errorf("case %d: config %+v must error", i, cfg)
		}
	}
	if _, err := New(nil, defaultCfg()); err == nil {
		t.Error("nil network must error")
	}
	empty, _ := roadnet.Build(nil, nil)
	if _, err := New(empty, defaultCfg()); err == nil {
		t.Error("empty network must error")
	}
}

func TestAllObjectsMoveAtFullAgility(t *testing.T) {
	s, err := New(lineNet(t), defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	ms := s.Tick(1)
	if len(ms) != 10 {
		t.Errorf("agility 1.0: %d of 10 objects moved", len(ms))
	}
	if s.N() != 10 {
		t.Errorf("N = %d", s.N())
	}
}

func TestAgilityFractionIID(t *testing.T) {
	cfg := Config{N: 10000, Agility: 0.1, Step: 10, Err: 0, Seed: 3, Model: IID}
	s, err := New(lineNet(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	const ticks = 20
	for i := 1; i <= ticks; i++ {
		total += len(s.Tick(trajectory.Time(i)))
	}
	got := float64(total) / float64(ticks*cfg.N)
	if math.Abs(got-0.1) > 0.01 {
		t.Errorf("moving fraction = %v want ≈ 0.1", got)
	}
}

// The bursty model must reproduce the same long-run moving fraction α,
// just with temporal correlation (objects drive, then wait at lights).
func TestAgilityFractionBursty(t *testing.T) {
	cfg := Config{N: 4000, Agility: 0.1, Step: 10, Err: 0, Seed: 3, Model: Bursty}
	s, err := New(lineNet(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	const ticks = 400
	for i := 1; i <= ticks; i++ {
		total += len(s.Tick(trajectory.Time(i)))
	}
	got := float64(total) / float64(ticks*cfg.N)
	if math.Abs(got-0.1) > 0.035 {
		t.Errorf("long-run moving fraction = %v want ≈ 0.1", got)
	}
}

// Under the bursty model an object moves at constant full speed between
// stops: consecutive measurements of a moving object are Step apart at
// consecutive timestamps.
func TestBurstyConstantSpeedWithinBurst(t *testing.T) {
	cfg := Config{N: 50, Agility: 0.2, Step: 10, Err: 0, Seed: 13, Model: Bursty}
	s, err := New(lineNet(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	type obs struct {
		t trajectory.Time
		p geom.Point
	}
	last := make(map[int]obs)
	for tick := 1; tick <= 300; tick++ {
		for _, m := range s.Tick(trajectory.Time(tick)) {
			if prev, ok := last[m.ObjectID]; ok && m.TP.T == prev.t+1 {
				d := prev.p.Dist(m.True)
				if d > 10+1e-9 {
					t.Fatalf("consecutive move of %vm exceeds step", d)
				}
			}
			last[m.ObjectID] = obs{m.TP.T, m.True}
		}
	}
}

func TestBurstyStartsMostlyStopped(t *testing.T) {
	cfg := Config{N: 500, Agility: 0.1, Step: 10, Err: 0, Seed: 5, Model: Bursty}
	s, err := New(lineNet(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	stopped := 0
	for id := 0; id < 500; id++ {
		if s.objs[id].stopUntil > 1 {
			stopped++
		}
	}
	// Steady-state init: about 1−α of the population waits at a light.
	if stopped < 300 {
		t.Errorf("stopped at t=1: %d of 500; steady-state init looks wrong", stopped)
	}
}

func TestMovementStaysOnNetwork(t *testing.T) {
	net := lineNet(t)
	s, err := New(net, Config{N: 5, Agility: 1, Step: 30, Err: 0, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for tick := 1; tick <= 50; tick++ {
		for _, m := range s.Tick(trajectory.Time(tick)) {
			// With zero noise the measurement equals the truth, and the
			// truth must lie on the single horizontal line y=0, x∈[0,200].
			if m.TP.P.Y != 0 || m.TP.P.X < -1e-9 || m.TP.P.X > 200+1e-9 {
				t.Fatalf("object left the network: %v", m.TP.P)
			}
			if !m.True.Eq(m.TP.P) {
				t.Fatal("zero-noise measurement must equal truth")
			}
		}
	}
}

func TestStepDisplacement(t *testing.T) {
	net := lineNet(t)
	s, err := New(net, Config{N: 1, Agility: 1, Step: 10, Err: 0, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	prev := s.Position(0)
	for tick := 1; tick <= 30; tick++ {
		ms := s.Tick(trajectory.Time(tick))
		if len(ms) != 1 {
			t.Fatal("object must move every tick at agility 1")
		}
		d := prev.Dist(ms[0].True)
		// Each move is exactly Step except when clamped at a node.
		if d > 10+1e-9 {
			t.Fatalf("move of %v exceeds step", d)
		}
		prev = ms[0].True
	}
}

func TestNoiseBounded(t *testing.T) {
	net := lineNet(t)
	s, err := New(net, Config{N: 100, Agility: 1, Step: 10, Err: 2.5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	sawNoise := false
	for tick := 1; tick <= 10; tick++ {
		for _, m := range s.Tick(trajectory.Time(tick)) {
			dx := math.Abs(m.TP.P.X - m.True.X)
			dy := math.Abs(m.TP.P.Y - m.True.Y)
			if dx > 2.5 || dy > 2.5 {
				t.Fatalf("noise (%v,%v) exceeds err", dx, dy)
			}
			if dx > 0.1 || dy > 0.1 {
				sawNoise = true
			}
		}
	}
	if !sawNoise {
		t.Error("expected some noticeable noise")
	}
}

func TestDeterministicForSeed(t *testing.T) {
	net := lineNet(t)
	cfg := Config{N: 20, Agility: 0.5, Step: 10, Err: 1, Seed: 13}
	a, _ := New(net, cfg)
	b, _ := New(net, cfg)
	for tick := 1; tick <= 10; tick++ {
		ma := a.Tick(trajectory.Time(tick))
		mb := b.Tick(trajectory.Time(tick))
		if len(ma) != len(mb) {
			t.Fatalf("tick %d: %d vs %d measurements", tick, len(ma), len(mb))
		}
		for i := range ma {
			if ma[i].ObjectID != mb[i].ObjectID || !ma[i].TP.P.Eq(mb[i].TP.P) {
				t.Fatalf("tick %d measurement %d differs", tick, i)
			}
		}
	}
}

// Traffic must concentrate on high-weight roads: on a star network with one
// motorway and several secondary spokes, most traversals pick the motorway.
func TestWeightedLinkChoice(t *testing.T) {
	nodes := []roadnet.Node{
		{ID: 0, P: geom.Pt(0, 0)},
		{ID: 1, P: geom.Pt(50, 0)},
		{ID: 2, P: geom.Pt(0, 50)},
		{ID: 3, P: geom.Pt(-50, 0)},
		{ID: 4, P: geom.Pt(0, -50)},
	}
	links := []roadnet.Link{
		{ID: 0, From: 0, To: 1, Class: roadnet.Motorway},  // weight 10
		{ID: 1, From: 0, To: 2, Class: roadnet.Secondary}, // weight 1
		{ID: 2, From: 0, To: 3, Class: roadnet.Secondary},
		{ID: 3, From: 0, To: 4, Class: roadnet.Secondary},
	}
	net, err := roadnet.Build(nodes, links)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(net, Config{N: 1000, Agility: 1, Step: 25, Err: 0, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	// In steady state each pass through the hub picks the motorway arm
	// w.p. 10/13 ≈ 0.77, so measurements on the x>0 arm must dominate the
	// three secondary arms combined. Skip a warm-up for seeding effects.
	onMotorway, offCentre := 0, 0
	for tick := 1; tick <= 300; tick++ {
		ms := s.Tick(trajectory.Time(tick))
		if tick <= 50 {
			continue
		}
		for _, m := range ms {
			if m.True.Dist(geom.Pt(0, 0)) < 1 {
				continue // at the hub, arm undefined
			}
			offCentre++
			if m.True.X > 1e-9 {
				onMotorway++
			}
		}
	}
	frac := float64(onMotorway) / float64(offCentre)
	if frac < 0.6 {
		t.Errorf("motorway share = %v, weighting looks ineffective", frac)
	}
}

// Measurement timestamps must be strictly increasing per object across
// ticks (a filter prerequisite).
func TestPerObjectTimestampsIncrease(t *testing.T) {
	net := lineNet(t)
	s, _ := New(net, Config{N: 50, Agility: 0.3, Step: 10, Err: 1, Seed: 19})
	last := make(map[int]trajectory.Time)
	for tick := 1; tick <= 100; tick++ {
		for _, m := range s.Tick(trajectory.Time(tick)) {
			if prev, ok := last[m.ObjectID]; ok && m.TP.T <= prev {
				t.Fatalf("object %d: timestamp %d after %d", m.ObjectID, m.TP.T, prev)
			}
			last[m.ObjectID] = m.TP.T
		}
	}
}
