package emulator

import (
	"fesplit/internal/capture"
	"fesplit/internal/simnet"
)

// Captures exposes each node's packet recorder to the package's
// external tests: the records' Events are its sessions, Trace its
// node-wide capture.
func (r *Runner) Captures() map[simnet.HostID]*capture.Recorder { return r.recs }

// EndMeasured is how many records the Runner's Measurer measured when a
// run ended, their capture lists never having become final.
func (r *Runner) EndMeasured() int { return r.endMeasured }
