package emulator

import (
	"fesplit/internal/capture"
	"fesplit/internal/simnet"
)

// Captures exposes each node's packet recorder to the package's
// external tests: the records' Events are its sessions, Trace its
// node-wide capture.
func (r *Runner) Captures() map[simnet.HostID]*capture.Recorder { return r.recs }
