//go:build race

package frontend

func init() { raceEnabled = true }
