package telemetry

import (
	"errors"
	"io"
	"os"
	"runtime/pprof"
	"runtime/trace"
)

// StartHostProfiles starts what a program's -cpuprofile and -exectrace flags
// ask for: a runtime CPU profile written to cpuprofile and a runtime
// execution trace written to exectrace, each only when its path is not "".
// The returned stop ends both and closes their files, returning what the
// closes return; call it before exit.
func StartHostProfiles(cpuprofile, exectrace string) (stop func() error, err error) {
	var files []*os.File
	stop = func() error {
		pprof.StopCPUProfile() // either is a no-op when it was not started
		trace.Stop()
		var errs []error
		for _, f := range files {
			errs = append(errs, f.Close())
		}
		return errors.Join(errs...)
	}
	start := func(path string, begin func(io.Writer) error) error {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		files = append(files, f)
		return begin(f)
	}
	if err := errors.Join(start(cpuprofile, pprof.StartCPUProfile), start(exectrace, trace.Start)); err != nil {
		return nil, errors.Join(err, stop())
	}
	return stop, nil
}
