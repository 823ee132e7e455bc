package partition

import (
	"testing"
)

func TestIndexMatchesEngineShardHash(t *testing.T) {
	// The reference mix the Engine has used since PR 1; Index must stay
	// bit-compatible with it (it is the same function, lifted here).
	ref := func(objectID, n int) int {
		h := uint64(objectID)
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
		return int(h % uint64(n))
	}
	for _, n := range []int{1, 2, 3, 4, 7, 16} {
		for id := -3; id < 1000; id += 7 {
			if got, want := Index(id, n), ref(id, n); got != want {
				t.Fatalf("Index(%d,%d) = %d, reference mix gives %d", id, n, got, want)
			}
		}
	}
}

func TestIndexSpread(t *testing.T) {
	const n, ids = 4, 4000
	var counts [n]int
	for id := 0; id < ids; id++ {
		p := Index(id, n)
		if p < 0 || p >= n {
			t.Fatalf("Index(%d,%d) = %d out of range", id, n, p)
		}
		counts[p]++
	}
	for p, c := range counts {
		if c < ids/n/2 || c > ids/n*2 {
			t.Errorf("partition %d owns %d of %d ids; mix is not spreading", p, c, ids)
		}
	}
}

func TestNewTable(t *testing.T) {
	tab := NewTable("http://a:8080", "http://b:8080", "http://c:8080")
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	if tab.N() != 3 || tab.Version != 1 || tab.Partitions[1] != (Partition{ID: 1, URL: "http://b:8080"}) {
		t.Fatalf("table = %+v", tab)
	}
}

func TestTableValidate(t *testing.T) {
	cases := []struct {
		name string
		tab  Table
	}{
		{"empty", Table{Version: 1}},
		{"gap in ids", Table{Version: 1, Partitions: []Partition{
			{ID: 0, URL: "http://a:1"}, {ID: 2, URL: "http://b:1"},
		}}},
		{"relative url", Table{Version: 1, Partitions: []Partition{
			{ID: 0, URL: "a:8080"},
		}}},
		{"no host", Table{Version: 1, Partitions: []Partition{
			{ID: 0, URL: "http://"},
		}}},
	}
	for _, tc := range cases {
		if err := tc.tab.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.tab)
		}
	}
}
