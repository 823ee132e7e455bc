//go:build race

package gateway

func init() { raceEnabled = true }
