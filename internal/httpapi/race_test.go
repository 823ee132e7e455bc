//go:build race

package httpapi_test

func init() { raceEnabled = true }
