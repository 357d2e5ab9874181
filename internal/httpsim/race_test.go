//go:build race

package httpsim

func init() { raceEnabled = true }
