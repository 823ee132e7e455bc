// Package roadnet models the road network used by the paper's workload
// generator (Section 6.1): an undirected graph whose nodes are major
// crossroads connected by straight links, classified into four weighted
// categories (motorways, highways, primary and secondary roads). Objects
// leaving a node pick an incident link with probability proportional to
// its weight, which concentrates traffic on major roads — exactly the skew
// that makes hot motion paths emerge.
//
// The paper uses the real greater-Athens network (1125 nodes, 1831 links,
// 250 km²). That data is not available, so GenerateAthens produces a
// deterministic synthetic stand-in with matching statistics: a perturbed
// grid of ~1125 nodes over a ~15.8 km square, ring plus radial motorways,
// a highway cross, several primary avenues, and secondary streets pruned
// to ~1831 links. The discovery algorithms never see the graph, so only
// these statistics matter for the experiments. Networks can also be
// serialised to and loaded from a simple text format.
package roadnet

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"hotpaths/internal/geom"
)

// Class is a road category.
type Class int

const (
	Secondary Class = iota
	Primary
	Highway
	Motorway
)

// Weight returns the link-choice weight of the class, reflecting its
// significance in vehicle circulation.
func (c Class) Weight() float64 {
	switch c {
	case Motorway:
		return 10
	case Highway:
		return 5
	case Primary:
		return 2
	default:
		return 1
	}
}

func (c Class) String() string {
	switch c {
	case Motorway:
		return "motorway"
	case Highway:
		return "highway"
	case Primary:
		return "primary"
	default:
		return "secondary"
	}
}

// ParseClass converts a class name back to a Class.
func ParseClass(s string) (Class, error) {
	switch s {
	case "motorway":
		return Motorway, nil
	case "highway":
		return Highway, nil
	case "primary":
		return Primary, nil
	case "secondary":
		return Secondary, nil
	}
	return 0, fmt.Errorf("roadnet: unknown class %q", s)
}

// Node is a crossroad.
type Node struct {
	ID int
	P  geom.Point
}

// Link is an undirected straight road between two nodes.
type Link struct {
	ID       int
	From, To int
	Class    Class
}

// Network is an undirected road graph with per-node adjacency.
type Network struct {
	Nodes []Node
	Links []Link
	adj   [][]int // node -> incident link ids
}

// Build finalises a network from nodes and links, constructing adjacency
// and validating references.
func Build(nodes []Node, links []Link) (*Network, error) {
	n := &Network{Nodes: nodes, Links: links}
	n.adj = make([][]int, len(nodes))
	for i, nd := range nodes {
		if nd.ID != i {
			return nil, fmt.Errorf("roadnet: node %d has id %d; ids must be dense indices", i, nd.ID)
		}
	}
	for i, l := range links {
		if l.ID != i {
			return nil, fmt.Errorf("roadnet: link %d has id %d; ids must be dense indices", i, l.ID)
		}
		if l.From < 0 || l.From >= len(nodes) || l.To < 0 || l.To >= len(nodes) {
			return nil, fmt.Errorf("roadnet: link %d references missing node (%d-%d)", i, l.From, l.To)
		}
		if l.From == l.To {
			return nil, fmt.Errorf("roadnet: link %d is a self-loop at node %d", i, l.From)
		}
		n.adj[l.From] = append(n.adj[l.From], i)
		n.adj[l.To] = append(n.adj[l.To], i)
	}
	return n, nil
}

// Incident returns the ids of links touching the node.
func (n *Network) Incident(node int) []int { return n.adj[node] }

// Other returns the endpoint of link l opposite to node.
func (n *Network) Other(l int, node int) int {
	lk := n.Links[l]
	if lk.From == node {
		return lk.To
	}
	return lk.From
}

// LinkLength returns the Euclidean length of link l.
func (n *Network) LinkLength(l int) float64 {
	lk := n.Links[l]
	return n.Nodes[lk.From].P.Dist(n.Nodes[lk.To].P)
}

// Bounds returns the bounding rectangle of all nodes (zero Rect if empty).
func (n *Network) Bounds() geom.Rect {
	if len(n.Nodes) == 0 {
		return geom.Rect{}
	}
	r := geom.Rect{Lo: n.Nodes[0].P, Hi: n.Nodes[0].P}
	for _, nd := range n.Nodes[1:] {
		r.Lo = r.Lo.Min(nd.P)
		r.Hi = r.Hi.Max(nd.P)
	}
	return r
}

// ClassCounts returns the number of links per class.
func (n *Network) ClassCounts() map[Class]int {
	out := make(map[Class]int)
	for _, l := range n.Links {
		out[l.Class]++
	}
	return out
}

// ConnectedComponents returns the number of connected components and the
// size of the largest one.
func (n *Network) ConnectedComponents() (count, largest int) {
	seen := make([]bool, len(n.Nodes))
	for start := range n.Nodes {
		if seen[start] {
			continue
		}
		count++
		size := 0
		stack := []int{start}
		seen[start] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			size++
			for _, l := range n.adj[v] {
				w := n.Other(l, v)
				if !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
		if size > largest {
			largest = size
		}
	}
	return count, largest
}

// WriteTo serialises the network in a line-oriented text format:
//
//	node <id> <x> <y>
//	link <id> <from> <to> <class>
func (n *Network) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var total int64
	for _, nd := range n.Nodes {
		c, err := fmt.Fprintf(bw, "node %d %g %g\n", nd.ID, nd.P.X, nd.P.Y)
		total += int64(c)
		if err != nil {
			return total, err
		}
	}
	for _, l := range n.Links {
		c, err := fmt.Fprintf(bw, "link %d %d %d %s\n", l.ID, l.From, l.To, l.Class)
		total += int64(c)
		if err != nil {
			return total, err
		}
	}
	return total, bw.Flush()
}

// Read parses the text format written by WriteTo.
func Read(r io.Reader) (*Network, error) {
	var nodes []Node
	var links []Link
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "node":
			if len(fields) != 4 {
				return nil, fmt.Errorf("roadnet: line %d: want 'node id x y'", lineNo)
			}
			var id int
			var x, y float64
			if _, err := fmt.Sscanf(strings.Join(fields[1:], " "), "%d %g %g", &id, &x, &y); err != nil {
				return nil, fmt.Errorf("roadnet: line %d: %w", lineNo, err)
			}
			nodes = append(nodes, Node{ID: id, P: geom.Pt(x, y)})
		case "link":
			if len(fields) != 5 {
				return nil, fmt.Errorf("roadnet: line %d: want 'link id from to class'", lineNo)
			}
			var id, from, to int
			if _, err := fmt.Sscanf(strings.Join(fields[1:4], " "), "%d %d %d", &id, &from, &to); err != nil {
				return nil, fmt.Errorf("roadnet: line %d: %w", lineNo, err)
			}
			cls, err := ParseClass(fields[4])
			if err != nil {
				return nil, fmt.Errorf("roadnet: line %d: %w", lineNo, err)
			}
			links = append(links, Link{ID: id, From: from, To: to, Class: cls})
		default:
			return nil, fmt.Errorf("roadnet: line %d: unknown record %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return Build(nodes, links)
}
