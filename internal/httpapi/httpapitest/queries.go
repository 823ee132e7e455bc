// Package httpapitest holds the read-query matrix every server speaking
// the httpapi contract must answer alike: one table, driven through the
// parser itself, through hotpathsd's handler and through the gateway's.
package httpapitest

// BadQueries must each answer 400 with the same error body everywhere —
// including non-finite bbox components, which strconv.ParseFloat happily
// accepts and every rectangle comparison then silently mismatches.
var BadQueries = []string{
	"/topk?k=1&limit=2",
	"/topk?k=-1",
	"/topk?k=abc",
	"/topk?limit=-5",
	"/paths?min_hotness=-1",
	"/paths?min_hotness=x",
	"/topk?bbox=1,2,3",
	"/topk?bbox=a,b,c,d",
	"/topk?bbox=NaN,0,10,10",
	"/topk?bbox=0,NaN,10,10",
	"/topk?bbox=0,0,Inf,10",
	"/topk?bbox=0,0,10,-Inf",
	"/topk?bbox=+Inf,0,10,10",
	"/paths.geojson?bbox=10,10,0,0",
	"/watch?bbox=0,NaN,5,5",
	"/watch?k=2&limit=3",
	"/topk?sort=banana",
}

// GoodQueries must each answer 200.
var GoodQueries = []string{
	"/topk?k=3&min_hotness=1&bbox=0,0,500,500&sort=score",
	"/paths?limit=2&sort=hotness",
	"/paths?bbox=-10,-10,10,10",
	"/paths.geojson?bbox=5,5,5,5", // degenerate point box is a valid region
}
