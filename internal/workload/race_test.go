//go:build race

package workload

func init() { raceEnabled = true }
