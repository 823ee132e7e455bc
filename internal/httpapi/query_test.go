package httpapi_test

import (
	"net/http/httptest"
	"testing"

	"hotpaths/internal/httpapi"
	"hotpaths/internal/httpapi/httpapitest"
)

func TestParseBounds(t *testing.T) {
	r, err := httpapi.ParseBounds("0, 0, 100, 200")
	if err != nil {
		t.Fatal(err)
	}
	if r.Max.X != 100 || r.Max.Y != 200 {
		t.Errorf("parsed %+v", r)
	}
	for _, bad := range []string{
		"", "1,2,3", "a,b,c,d",
		// ParseFloat accepts these spellings; the contract must not.
		"NaN,0,1,1", "0,nan,1,1", "0,0,Inf,1", "0,0,1,-Inf", "+Inf,0,1,1",
	} {
		if _, err := httpapi.ParseBounds(bad); err == nil {
			t.Errorf("ParseBounds(%q) must fail", bad)
		}
	}
}

// The shared query-parameter parser must reject the whole error matrix
// and accept the good one. The same table is driven through the real
// hotpathsd and gateway handlers by cmd/hotpathsd's
// TestQueryMatrixBothServers.
func TestQueryParamsErrorMatrix(t *testing.T) {
	for _, u := range httpapitest.BadQueries {
		if _, err := httpapi.ParseQuery(httptest.NewRequest("GET", u, nil), 10); err == nil {
			t.Errorf("ParseQuery(%s) must fail", u)
		}
	}
	for _, u := range httpapitest.GoodQueries {
		if _, err := httpapi.ParseQuery(httptest.NewRequest("GET", u, nil), 10); err != nil {
			t.Errorf("ParseQuery(%s): %v", u, err)
		}
	}
}
