package roadnet

import (
	"bytes"
	"strings"
	"testing"

	"hotpaths/internal/geom"
)

func smallNet(t *testing.T) *Network {
	t.Helper()
	nodes := []Node{
		{0, geom.Pt(0, 0)},
		{1, geom.Pt(100, 0)},
		{2, geom.Pt(100, 100)},
		{3, geom.Pt(0, 100)},
	}
	links := []Link{
		{0, 0, 1, Motorway},
		{1, 1, 2, Primary},
		{2, 2, 3, Secondary},
		{3, 3, 0, Highway},
		{4, 0, 2, Secondary},
	}
	n, err := Build(nodes, links)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestClassWeightsOrdering(t *testing.T) {
	if !(Motorway.Weight() > Highway.Weight() &&
		Highway.Weight() > Primary.Weight() &&
		Primary.Weight() > Secondary.Weight()) {
		t.Error("class weights must be strictly decreasing by importance")
	}
}

func TestParseClassRoundTrip(t *testing.T) {
	for _, c := range []Class{Secondary, Primary, Highway, Motorway} {
		got, err := ParseClass(c.String())
		if err != nil || got != c {
			t.Errorf("round trip %v: %v %v", c, got, err)
		}
	}
	if _, err := ParseClass("cowpath"); err == nil {
		t.Error("unknown class must error")
	}
}

func TestBuildValidation(t *testing.T) {
	nodes := []Node{{0, geom.Pt(0, 0)}, {1, geom.Pt(1, 1)}}
	if _, err := Build([]Node{{ID: 5, P: geom.Pt(0, 0)}}, nil); err == nil {
		t.Error("non-dense node ids must error")
	}
	if _, err := Build(nodes, []Link{{ID: 3, From: 0, To: 1}}); err == nil {
		t.Error("non-dense link ids must error")
	}
	if _, err := Build(nodes, []Link{{ID: 0, From: 0, To: 9}}); err == nil {
		t.Error("dangling link must error")
	}
	if _, err := Build(nodes, []Link{{ID: 0, From: 1, To: 1}}); err == nil {
		t.Error("self loop must error")
	}
}

func TestAdjacency(t *testing.T) {
	n := smallNet(t)
	inc := n.Incident(0)
	if len(inc) != 3 {
		t.Fatalf("node 0 incident = %v", inc)
	}
	if n.Other(0, 0) != 1 || n.Other(0, 1) != 0 {
		t.Error("Other mismatch")
	}
	if n.LinkLength(0) != 100 {
		t.Errorf("LinkLength = %v", n.LinkLength(0))
	}
}

func TestBoundsAndComponents(t *testing.T) {
	n := smallNet(t)
	if n.Bounds() != (geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(100, 100)}) {
		t.Errorf("Bounds = %v", n.Bounds())
	}
	count, largest := n.ConnectedComponents()
	if count != 1 || largest != 4 {
		t.Errorf("components = %d largest %d", count, largest)
	}
	empty, _ := Build(nil, nil)
	if empty.Bounds() != (geom.Rect{}) {
		t.Error("empty Bounds")
	}
	cc := n.ClassCounts()
	if cc[Secondary] != 2 || cc[Motorway] != 1 {
		t.Errorf("ClassCounts = %v", cc)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	n := smallNet(t)
	var buf bytes.Buffer
	if _, err := n.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Nodes) != len(n.Nodes) || len(got.Links) != len(n.Links) {
		t.Fatalf("round trip sizes: %d/%d nodes, %d/%d links",
			len(got.Nodes), len(n.Nodes), len(got.Links), len(n.Links))
	}
	for i := range n.Nodes {
		if !got.Nodes[i].P.Eq(n.Nodes[i].P) {
			t.Errorf("node %d position mismatch", i)
		}
	}
	for i := range n.Links {
		if got.Links[i] != n.Links[i] {
			t.Errorf("link %d mismatch: %v vs %v", i, got.Links[i], n.Links[i])
		}
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"frob 1 2 3",
		"node 0 abc def",
		"node 0 1",
		"link 0 0 1",
		"link 0 0 1 cowpath",
		"link x 0 1 primary",
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("input %q must error", c)
		}
	}
	// Comments and blank lines are fine.
	ok := "# comment\n\nnode 0 0 0\nnode 1 5 5\nlink 0 0 1 primary\n"
	if _, err := Read(strings.NewReader(ok)); err != nil {
		t.Errorf("valid input rejected: %v", err)
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(GenConfig{GridCols: 2, GridRows: 5, Size: 100}); err == nil {
		t.Error("tiny grid must error")
	}
	if _, err := Generate(GenConfig{GridCols: 5, GridRows: 5, Size: 0}); err == nil {
		t.Error("zero size must error")
	}
	if _, err := Generate(GenConfig{GridCols: 5, GridRows: 5, Size: 100, Jitter: 0.6}); err == nil {
		t.Error("excessive jitter must error")
	}
}

func TestGenerateAthensStatistics(t *testing.T) {
	n, err := GenerateAthens(42)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(n.Nodes); got != 34*34 {
		t.Errorf("nodes = %d want 1156 (≈ paper's 1125)", got)
	}
	if got := len(n.Links); got != 1831 {
		t.Errorf("links = %d want exactly 1831", got)
	}
	count, largest := n.ConnectedComponents()
	if count != 1 || largest != len(n.Nodes) {
		t.Errorf("network must be connected: %d components, largest %d", count, largest)
	}
	// All four classes present, with secondary the most numerous.
	cc := n.ClassCounts()
	for _, cl := range []Class{Secondary, Primary, Highway, Motorway} {
		if cc[cl] == 0 {
			t.Errorf("class %v absent", cl)
		}
	}
	if !(cc[Secondary] > cc[Primary] && cc[Primary] > cc[Motorway]) {
		t.Errorf("class skew looks wrong: %v", cc)
	}
	// Bounds approximately cover the configured square.
	b := n.Bounds()
	if b.Width() < 14000 || b.Width() > 18000 || b.Height() < 14000 || b.Height() > 18000 {
		t.Errorf("bounds = %v, expected ≈ 15.8 km square", b)
	}
	// Every node remains reachable: no isolated nodes.
	for i := range n.Nodes {
		if len(n.Incident(i)) == 0 {
			t.Errorf("node %d is isolated", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := GenerateAthens(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateAthens(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Links) != len(b.Links) {
		t.Fatal("link counts differ across identical seeds")
	}
	for i := range a.Links {
		if a.Links[i] != b.Links[i] {
			t.Fatalf("link %d differs across identical seeds", i)
		}
	}
	for i := range a.Nodes {
		if !a.Nodes[i].P.Eq(b.Nodes[i].P) {
			t.Fatalf("node %d differs across identical seeds", i)
		}
	}
	c, err := GenerateAthens(8)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Nodes {
		if !a.Nodes[i].P.Eq(c.Nodes[i].P) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should perturb node positions")
	}
}

func TestGenerateAthensSerializationRoundTrip(t *testing.T) {
	n, err := GenerateAthens(1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := n.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Nodes) != len(n.Nodes) || len(got.Links) != len(n.Links) {
		t.Error("round trip changed sizes")
	}
}
