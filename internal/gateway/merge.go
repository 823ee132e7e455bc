package gateway

import (
	"fmt"
	"math"
	"math/rand/v2"

	"hotpaths"
	"hotpaths/internal/httpapi"
)

// The merge sums every partition's answer by path id into one union. The
// same corridor discovered by more than one partition has the same
// content-addressed id everywhere, so the merge is a hotness sum by id;
// the first partition holding a path, in table order, gives its geometry.
// Nothing is ordered here: the union becomes a hotpaths.Snapshot (with no
// grid, so a region query is a linear filter) that orders itself on
// demand.

// mixer is the odd multiplier of the union's slot hash, drawn once per
// process, so no partition can choose ids that collide in the table.
var mixer = rand.Uint64() | 1

// union is a merge in progress: the distinct paths in first-seen order,
// hotness summed, behind one flat open-addressing table from id to path.
// A slot holds its path's index + 1; 0 is empty. A path's home slot is
// the top bits of id × mixer, and a collision probes the next slots.
type union struct {
	paths []hotpaths.HotPath
	slots []int32
	shift uint // 64 − log2(len(slots))
}

// newUnion makes room for n paths: the table is a power of two of at
// least 2n slots, so it stays at most half full and nothing grows.
func newUnion(n int) *union {
	bits := 1
	for 1<<bits < 2*n {
		bits++
	}
	return &union{
		paths: make([]hotpaths.HotPath, 0, n),
		slots: make([]int32, 1<<bits),
		shift: uint(64 - bits),
	}
}

// find returns the table position of id: its slot, or the empty one it
// would take.
func (u *union) find(id uint64) int {
	mask := len(u.slots) - 1
	for i := int(id * mixer >> u.shift); ; i = (i + 1) & mask {
		if s := u.slots[i]; s == 0 || u.paths[s-1].ID == id {
			return i
		}
	}
}

// add merges one path: a new id is appended with the geometry it came
// with, a known one gains its hotness. It refuses a negative hotness and
// a sum that overflows int, changing nothing.
func (u *union) add(hp hotpaths.HotPath) error {
	if hp.Hotness < 0 {
		return fmt.Errorf("path %d: hotness %d is negative", hp.ID, hp.Hotness)
	}
	i := u.find(hp.ID)
	s := u.slots[i]
	if s == 0 {
		u.paths = append(u.paths, hp)
		u.slots[i] = int32(len(u.paths))
		return nil
	}
	p := &u.paths[s-1]
	if hp.Hotness > math.MaxInt-p.Hotness {
		return fmt.Errorf("path %d: hotness %d + %d overflows", hp.ID, p.Hotness, hp.Hotness)
	}
	p.Hotness += hp.Hotness
	return nil
}

// addBody merges every path of one partition's binary answer, or none: a
// path the body's decoder or add refuses fails the whole leg, and what it
// had merged is taken back out.
func (u *union) addBody(b httpapi.PathsBody) error {
	before := len(u.paths)
	for i := range b.Len() {
		hp, err := b.Path(i)
		if err == nil {
			err = u.add(hp)
		}
		if err != nil {
			u.undo(b, i, before)
			return err
		}
	}
	return nil
}

// undo takes b's first n paths back out of a union that held before paths
// before b: sums into older paths are subtracted, and the paths b added
// are removed newest first — each is then the last insert, whose removal
// leaves every other probe chain as it was.
func (u *union) undo(b httpapi.PathsBody, n, before int) {
	for i := range n {
		hp, _ := b.Path(i)
		if s := int(u.slots[u.find(hp.ID)]); s <= before {
			u.paths[s-1].Hotness -= hp.Hotness
		}
	}
	for j := len(u.paths) - 1; j >= before; j-- {
		u.slots[u.find(u.paths[j].ID)] = 0
	}
	u.paths = u.paths[:before]
}

// snapshot copies the union into a Snapshot with k as its TopK cap.
func (u *union) snapshot(k int) hotpaths.Snapshot {
	return hotpaths.SnapshotOf(u.paths, hotpaths.Rect{}, 0, 0, k)
}
