// Package partition maps object ids to the partition that owns them and
// describes a partitioned fleet as a versioned table.
//
// The map is the same 64-bit finalizer mix the Engine has always used to
// spread objects over its in-process shards, lifted one level up: a
// gateway hashes an object id to one of N independent primaries exactly
// the way an Engine hashes it to one of N shards. Determinism is the
// point — every router, every daemon and every test derives the same
// owner from (object id, partition count) with no coordination.
package partition

import (
	"fmt"
	"net/url"
)

// Hash mixes an object id into a uniformly spread 64-bit value (the
// murmur3 finalizer, so adjacent ids land far apart).
func Hash(objectID int) uint64 {
	h := uint64(objectID)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// Index returns the owner of objectID among n partitions (or shards).
// n must be positive.
func Index(objectID, n int) int {
	return int(Hash(objectID) % uint64(n))
}

// Partition is one entry of a Table: a partition id and the base URL of
// the hotpathsd primary that owns it.
type Partition struct {
	ID  int
	URL string
}

// Table is the versioned description of a partitioned fleet: partition i
// of len(Partitions) owns every object id with Index(id, n) == i. The
// gateway reports Version in its /stats, so operators can tell two table
// generations apart during a resharding rollout; routing itself depends
// only on the partition count.
type Table struct {
	Version    uint64
	Partitions []Partition
}

// NewTable builds a version-1 table owning the given primaries in order:
// urls[i] becomes partition i of len(urls).
func NewTable(urls ...string) Table {
	parts := make([]Partition, len(urls))
	for i, u := range urls {
		parts[i] = Partition{ID: i, URL: u}
	}
	return Table{Version: 1, Partitions: parts}
}

// N returns the partition count.
func (t Table) N() int { return len(t.Partitions) }

// Validate checks the table is routable: at least one partition, ids
// exactly 0..n-1 in order (the id IS the hash slot, so gaps or
// permutations would misroute), and well-formed absolute http(s) URLs.
func (t Table) Validate() error {
	if len(t.Partitions) == 0 {
		return fmt.Errorf("partition: table has no partitions")
	}
	for i, p := range t.Partitions {
		if p.ID != i {
			return fmt.Errorf("partition: entry %d carries id %d; ids must be exactly 0..%d in order",
				i, p.ID, len(t.Partitions)-1)
		}
		u, err := url.Parse(p.URL)
		if err != nil {
			return fmt.Errorf("partition %d: url %q: %w", i, p.URL, err)
		}
		if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return fmt.Errorf("partition %d: url %q must be absolute http(s)", i, p.URL)
		}
	}
	return nil
}
