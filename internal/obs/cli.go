package obs

import (
	"flag"
	"io"
	"os"
)

// Profiling bundles the profiling flags the verifyio and reproduce commands
// expose: -cpuprofile and -memprofile write pprof files. Register the flags,
// call Start after flag.Parse, and invoke the returned stop function exactly
// once on exit (it finishes the CPU profile and writes the heap profile).
type Profiling struct {
	CPUProfile string
	MemProfile string
}

// RegisterFlags registers -cpuprofile and -memprofile on fs.
func (p *Profiling) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&p.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&p.MemProfile, "memprofile", "", "write a heap profile to this file on exit")
}

// Start begins CPU profiling as configured; unset fields are no-ops.
func (p *Profiling) Start() (stop func() error, err error) {
	stopCPU, err := StartCPUProfile(p.CPUProfile)
	if err != nil {
		return nil, err
	}
	return func() error {
		stopCPU()
		return WriteHeapProfile(p.MemProfile)
	}, nil
}

// WriteFileWith creates path and streams write into it — the helper behind
// the -trace-out flag. An empty path is a no-op.
func WriteFileWith(path string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
