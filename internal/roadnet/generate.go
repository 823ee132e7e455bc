package roadnet

import (
	"fmt"
	"math"
	"math/rand"

	"hotpaths/internal/geom"
)

// edge is an undirected lattice edge used during generation.
type edge struct{ a, b int }

// GenConfig parameterises the synthetic network generator.
type GenConfig struct {
	// GridCols, GridRows give the node lattice dimensions.
	GridCols, GridRows int
	// Size is the side length of the covered square, in metres.
	Size float64
	// Jitter perturbs node positions by ±Jitter×spacing.
	Jitter float64
	// TargetLinks prunes secondary links down to this total (0 = no prune).
	TargetLinks int
	// Seed makes generation deterministic.
	Seed int64
}

// AthensConfig returns the configuration matching the paper's network
// statistics: ~1125 nodes and ~1831 links over 250 km² (a 15.81 km square).
func AthensConfig(seed int64) GenConfig {
	return GenConfig{
		GridCols:    34,
		GridRows:    34,
		Size:        15810, // metres; 15.81² km² ≈ 250 km²
		Jitter:      0.25,
		TargetLinks: 1831,
		Seed:        seed,
	}
}

// GenerateAthens builds the synthetic greater-Athens stand-in network.
func GenerateAthens(seed int64) (*Network, error) {
	return Generate(AthensConfig(seed))
}

// Generate builds a synthetic urban network: a jittered lattice of
// secondary streets, overlaid with primary avenues every few rows/columns,
// a central highway cross, and a motorway ring plus two diagonals. Random
// secondary links are then pruned (preserving a spanning tree, so the
// network stays connected) until TargetLinks remain.
func Generate(cfg GenConfig) (*Network, error) {
	if cfg.GridCols < 3 || cfg.GridRows < 3 {
		return nil, fmt.Errorf("roadnet: grid must be at least 3x3, got %dx%d", cfg.GridCols, cfg.GridRows)
	}
	if cfg.Size <= 0 {
		return nil, fmt.Errorf("roadnet: size must be positive, got %v", cfg.Size)
	}
	if cfg.Jitter < 0 || cfg.Jitter >= 0.5 {
		return nil, fmt.Errorf("roadnet: jitter must be in [0, 0.5), got %v", cfg.Jitter)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	cols, rows := cfg.GridCols, cfg.GridRows

	// Nodes: a lattice warped toward the centre. Real urban networks are
	// dense downtown and sparse at the periphery; the warp gives central
	// links of ~100–200 m (where traffic concentrates and objects turn
	// often) and peripheral links of several hundred metres, while keeping
	// the configured overall extent. warp maps u∈[0,1] to [0,1] with a
	// small derivative at the centre. Here and below, a conversion rounds
	// each product that meets a sum, so no architecture fuses the two (see
	// geom.Point.Lerp).
	warp := func(u float64) float64 {
		v := float64(2*u) - 1 // [-1,1]
		s := math.Abs(v)
		w := math.Pow(s, 1.5)
		if v < 0 {
			w = -w
		}
		return 0.5 + float64(0.5*w)
	}
	at := func(c, r int) int { return r*cols + c }
	base := make([]geom.Point, cols*rows)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			base[at(c, r)] = geom.Pt(
				warp(float64(c)/float64(cols-1))*cfg.Size,
				warp(float64(r)/float64(rows-1))*cfg.Size,
			)
		}
	}
	// Jitter each node by a fraction of its local lattice spacing so dense
	// areas stay dense and links never cross their neighbours.
	nodes := make([]Node, cols*rows)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			local := math.Inf(1)
			p := base[at(c, r)]
			for _, d := range [][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
				nc, nr := c+d[0], r+d[1]
				if nc < 0 || nc >= cols || nr < 0 || nr >= rows {
					continue
				}
				if dd := p.Dist(base[at(nc, nr)]); dd < local {
					local = dd
				}
			}
			jx := float64((float64(2*float64(rng.Float64())) - 1) * cfg.Jitter * local)
			jy := float64((float64(2*float64(rng.Float64())) - 1) * cfg.Jitter * local)
			nodes[at(c, r)] = Node{ID: at(c, r), P: p.Add(geom.Pt(jx, jy))}
		}
	}

	// Lattice links, initially all secondary.
	var edges []edge
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, edge{at(c, r), at(c+1, r)})
			}
			if r+1 < rows {
				edges = append(edges, edge{at(c, r), at(c, r+1)})
			}
		}
	}
	class := make(map[edge]Class, len(edges))
	for _, e := range edges {
		class[e] = Secondary
	}
	upgrade := func(a, b int, cl Class) {
		e := edge{a, b}
		if _, ok := class[e]; !ok {
			e = edge{b, a}
			if _, ok := class[e]; !ok {
				return
			}
		}
		if cl > class[e] {
			class[e] = cl
		}
	}

	// Primary avenues: every 5th row and column.
	for r := 2; r < rows; r += 5 {
		for c := 0; c+1 < cols; c++ {
			upgrade(at(c, r), at(c+1, r), Primary)
		}
	}
	for c := 2; c < cols; c += 5 {
		for r := 0; r+1 < rows; r++ {
			upgrade(at(c, r), at(c, r+1), Primary)
		}
	}
	// Highway cross through the centre.
	midR, midC := rows/2, cols/2
	for c := 0; c+1 < cols; c++ {
		upgrade(at(c, midR), at(c+1, midR), Highway)
	}
	for r := 0; r+1 < rows; r++ {
		upgrade(at(midC, r), at(midC, r+1), Highway)
	}
	// Motorway ring at ~70% radius plus the two diagonals.
	ringLo, ringHiC, ringHiR := 5, cols-6, rows-6
	for c := ringLo; c < ringHiC; c++ {
		upgrade(at(c, ringLo), at(c+1, ringLo), Motorway)
		upgrade(at(c, ringHiR), at(c+1, ringHiR), Motorway)
	}
	for r := ringLo; r < ringHiR; r++ {
		upgrade(at(ringLo, r), at(ringLo, r+1), Motorway)
		upgrade(at(ringHiC, r), at(ringHiC, r+1), Motorway)
	}
	// Diagonals (staircase pattern) as motorways feeding the ring.
	steps := int(math.Min(float64(cols), float64(rows))) - 1
	for i := 0; i < steps; i++ {
		if i+1 < cols && i+1 < rows {
			upgrade(at(i, i), at(i+1, i), Motorway)
			upgrade(at(i+1, i), at(i+1, i+1), Motorway)
		}
	}

	// Prune secondary links down to the target, preserving connectivity
	// with a union-find spanning structure over non-removable links first.
	if cfg.TargetLinks > 0 && cfg.TargetLinks < len(edges) {
		need := len(edges) - cfg.TargetLinks
		// Shuffle candidate secondary edges.
		var cand []edge
		for _, e := range edges {
			if class[e] == Secondary {
				cand = append(cand, e)
			}
		}
		rng.Shuffle(len(cand), func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
		removed := make(map[edge]bool)
		for _, e := range cand {
			if need == 0 {
				break
			}
			removed[e] = true
			if stillConnected(len(nodes), edges, removed) {
				need--
			} else {
				delete(removed, e)
			}
		}
		if need > 0 {
			return nil, fmt.Errorf("roadnet: could not prune to %d links without disconnecting", cfg.TargetLinks)
		}
		var kept []edge
		for _, e := range edges {
			if !removed[e] {
				kept = append(kept, e)
			}
		}
		edges = kept
	}

	links := make([]Link, len(edges))
	for i, e := range edges {
		links[i] = Link{ID: i, From: e.a, To: e.b, Class: class[e]}
	}
	return Build(nodes, links)
}

// stillConnected checks connectivity of the lattice graph minus removed
// edges using union-find. It runs per candidate removal; the generator is
// an offline tool, so the O(E α(V)) per check is acceptable.
func stillConnected(nNodes int, edges []edge, removed map[edge]bool) bool {
	parent := make([]int, nNodes)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	comps := nNodes
	for _, e := range edges {
		if removed[e] {
			continue
		}
		ra, rb := find(e.a), find(e.b)
		if ra != rb {
			parent[ra] = rb
			comps--
		}
	}
	return comps == 1
}
