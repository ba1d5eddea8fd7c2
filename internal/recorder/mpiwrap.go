package recorder

import (
	"strconv"
	"strings"

	"verifyio/internal/sim/mpi"
	"verifyio/internal/trace"
)

// Traced MPI wrappers. Each records its arguments in the order its row of
// the call table in package trace gives. Wildcard receives record the
// requested src/tag (-1) *and* the actual values from the returned
// MPI_Status — the information the paper's matcher uses to resolve
// MPI_ANY_SOURCE / MPI_ANY_TAG offline. Request ids tie non-blocking
// initiations to their completing Wait*/Test* calls.

// Send is the traced MPI_Send.
func (r *Rank) Send(comm *mpi.Comm, dst, tag int, data []byte) error {
	return r.Record(trace.LayerMPI, "MPI_Send", func() []string {
		return []string{comm.GID(), itoa(int64(dst)), itoa(int64(tag)), itoa(int64(len(data)))}
	}, func() error { return r.proc.Send(comm, dst, tag, data) })
}

// Recv is the traced MPI_Recv.
func (r *Rank) Recv(comm *mpi.Comm, src, tag int) ([]byte, mpi.Status, error) {
	return record2(r, trace.LayerMPI, "MPI_Recv", func() ([]byte, mpi.Status, error) {
		return r.proc.Recv(comm, src, tag)
	}, func(data []byte, st mpi.Status) []string {
		return []string{comm.GID(), itoa(int64(src)), itoa(int64(tag)),
			itoa(int64(len(data))), itoa(int64(st.Source)), itoa(int64(st.Tag))}
	})
}

// Sendrecv is the traced MPI_Sendrecv. The record carries both halves; the
// matcher treats it as a send event and a receive event.
func (r *Rank) Sendrecv(comm *mpi.Comm, dst, sendTag int, data []byte, src, recvTag int) ([]byte, mpi.Status, error) {
	return record2(r, trace.LayerMPI, "MPI_Sendrecv", func() ([]byte, mpi.Status, error) {
		return r.proc.Sendrecv(comm, dst, sendTag, data, src, recvTag)
	}, func(out []byte, st mpi.Status) []string {
		return []string{comm.GID(), itoa(int64(dst)), itoa(int64(sendTag)),
			itoa(int64(len(data))), itoa(int64(src)), itoa(int64(recvTag)),
			itoa(int64(len(out))), itoa(int64(st.Source)), itoa(int64(st.Tag))}
	})
}

// Isend is the traced MPI_Isend.
func (r *Rank) Isend(comm *mpi.Comm, dst, tag int, data []byte) (*mpi.Request, error) {
	return record(r, trace.LayerMPI, "MPI_Isend", func() (*mpi.Request, error) {
		return r.proc.Isend(comm, dst, tag, data)
	}, func(req *mpi.Request) []string {
		return []string{comm.GID(), itoa(int64(dst)), itoa(int64(tag)),
			itoa(int64(len(data))), reqID(req)}
	})
}

// Irecv is the traced MPI_Irecv.
func (r *Rank) Irecv(comm *mpi.Comm, src, tag int) (*mpi.Request, error) {
	return record(r, trace.LayerMPI, "MPI_Irecv", func() (*mpi.Request, error) {
		return r.proc.Irecv(comm, src, tag)
	}, func(req *mpi.Request) []string {
		return []string{comm.GID(), itoa(int64(src)), itoa(int64(tag)), reqID(req)}
	})
}

// Wait is the traced MPI_Wait.
func (r *Rank) Wait(req *mpi.Request) (mpi.Status, error) {
	return record(r, trace.LayerMPI, "MPI_Wait", func() (mpi.Status, error) {
		return r.proc.Wait(req)
	}, func(st mpi.Status) []string {
		return []string{reqID(req), itoa(int64(st.Source)), itoa(int64(st.Tag))}
	})
}

// Waitall is the traced MPI_Waitall.
func (r *Rank) Waitall(reqs []*mpi.Request) ([]mpi.Status, error) {
	return record(r, trace.LayerMPI, "MPI_Waitall", func() ([]mpi.Status, error) {
		return r.proc.Waitall(reqs)
	}, func(sts []mpi.Status) []string {
		args := reqListArgs(reqs)
		for _, st := range sts {
			args = append(args, itoa(int64(st.Source)), itoa(int64(st.Tag)))
		}
		return args
	})
}

// Waitany is the traced MPI_Waitany.
func (r *Rank) Waitany(reqs []*mpi.Request) (int, mpi.Status, error) {
	return record2(r, trace.LayerMPI, "MPI_Waitany", func() (int, mpi.Status, error) {
		return r.proc.Waitany(reqs)
	}, func(idx int, st mpi.Status) []string {
		args := reqListArgs(reqs)
		return append(args, itoa(int64(idx)), itoa(int64(st.Source)), itoa(int64(st.Tag)))
	})
}

// Waitsome is the traced MPI_Waitsome.
func (r *Rank) Waitsome(reqs []*mpi.Request) ([]int, []mpi.Status, error) {
	return record2(r, trace.LayerMPI, "MPI_Waitsome", func() ([]int, []mpi.Status, error) {
		return r.proc.Waitsome(reqs)
	}, func(idx []int, sts []mpi.Status) []string {
		return completionListArgs(reqs, idx, sts)
	})
}

// Test is the traced MPI_Test.
func (r *Rank) Test(req *mpi.Request) (bool, mpi.Status, error) {
	return record2(r, trace.LayerMPI, "MPI_Test", func() (bool, mpi.Status, error) {
		return r.proc.Test(req)
	}, func(done bool, st mpi.Status) []string {
		return []string{reqID(req), boolArg(done), itoa(int64(st.Source)), itoa(int64(st.Tag))}
	})
}

// Testany is the traced MPI_Testany.
func (r *Rank) Testany(reqs []*mpi.Request) (index int, done bool, st mpi.Status, err error) {
	err = r.Record(trace.LayerMPI, "MPI_Testany", func() []string {
		args := append(reqListArgs(reqs), itoa(int64(index)), boolArg(done))
		return append(args, itoa(int64(st.Source)), itoa(int64(st.Tag)))
	}, func() (err error) {
		index, done, st, err = r.proc.Testany(reqs)
		return err
	})
	return index, done, st, err
}

// Testall is the traced MPI_Testall.
func (r *Rank) Testall(reqs []*mpi.Request) (bool, []mpi.Status, error) {
	return record2(r, trace.LayerMPI, "MPI_Testall", func() (bool, []mpi.Status, error) {
		return r.proc.Testall(reqs)
	}, func(done bool, sts []mpi.Status) []string {
		args := append(reqListArgs(reqs), boolArg(done))
		for _, st := range sts {
			args = append(args, itoa(int64(st.Source)), itoa(int64(st.Tag)))
		}
		return args
	})
}

// Testsome is the traced MPI_Testsome.
func (r *Rank) Testsome(reqs []*mpi.Request) ([]int, []mpi.Status, error) {
	return record2(r, trace.LayerMPI, "MPI_Testsome", func() ([]int, []mpi.Status, error) {
		return r.proc.Testsome(reqs)
	}, func(idx []int, sts []mpi.Status) []string {
		return completionListArgs(reqs, idx, sts)
	})
}

// Barrier is the traced MPI_Barrier.
func (r *Rank) Barrier(comm *mpi.Comm) error {
	return r.Record(trace.LayerMPI, "MPI_Barrier", func() []string {
		return []string{comm.GID()}
	}, func() error { return r.proc.Barrier(comm) })
}

// Bcast is the traced MPI_Bcast.
func (r *Rank) Bcast(comm *mpi.Comm, root int, data []byte) ([]byte, error) {
	return record(r, trace.LayerMPI, "MPI_Bcast", func() ([]byte, error) {
		return r.proc.Bcast(comm, root, data)
	}, func(out []byte) []string {
		return []string{comm.GID(), itoa(int64(root)), itoa(int64(len(out)))}
	})
}

// Reduce is the traced MPI_Reduce.
func (r *Rank) Reduce(comm *mpi.Comm, root int, val int64, op mpi.Op) (int64, error) {
	return record(r, trace.LayerMPI, "MPI_Reduce", func() (int64, error) {
		return r.proc.Reduce(comm, root, val, op)
	}, func(out int64) []string {
		return []string{comm.GID(), itoa(int64(root)), op.String()}
	})
}

// Allreduce is the traced MPI_Allreduce.
func (r *Rank) Allreduce(comm *mpi.Comm, val int64, op mpi.Op) (int64, error) {
	return record(r, trace.LayerMPI, "MPI_Allreduce", func() (int64, error) {
		return r.proc.Allreduce(comm, val, op)
	}, func(out int64) []string {
		return []string{comm.GID(), op.String()}
	})
}

// Scan is the traced MPI_Scan (inclusive prefix reduction).
func (r *Rank) Scan(comm *mpi.Comm, val int64, op mpi.Op) (int64, error) {
	return record(r, trace.LayerMPI, "MPI_Scan", func() (int64, error) {
		return r.proc.Scan(comm, val, op)
	}, func(out int64) []string {
		return []string{comm.GID(), op.String()}
	})
}

// Exscan is the traced MPI_Exscan (exclusive prefix reduction).
func (r *Rank) Exscan(comm *mpi.Comm, val int64, op mpi.Op) (int64, error) {
	return record(r, trace.LayerMPI, "MPI_Exscan", func() (int64, error) {
		return r.proc.Exscan(comm, val, op)
	}, func(out int64) []string {
		return []string{comm.GID(), op.String()}
	})
}

// Gather is the traced MPI_Gather.
func (r *Rank) Gather(comm *mpi.Comm, root int, data []byte) ([][]byte, error) {
	return record(r, trace.LayerMPI, "MPI_Gather", func() ([][]byte, error) {
		return r.proc.Gather(comm, root, data)
	}, func(out [][]byte) []string {
		return []string{comm.GID(), itoa(int64(root))}
	})
}

// Allgather is the traced MPI_Allgather.
func (r *Rank) Allgather(comm *mpi.Comm, data []byte) ([][]byte, error) {
	return record(r, trace.LayerMPI, "MPI_Allgather", func() ([][]byte, error) {
		return r.proc.Allgather(comm, data)
	}, func(out [][]byte) []string {
		return []string{comm.GID()}
	})
}

// Scatter is the traced MPI_Scatter.
func (r *Rank) Scatter(comm *mpi.Comm, root int, parts [][]byte) ([]byte, error) {
	return record(r, trace.LayerMPI, "MPI_Scatter", func() ([]byte, error) {
		return r.proc.Scatter(comm, root, parts)
	}, func(out []byte) []string {
		return []string{comm.GID(), itoa(int64(root))}
	})
}

// Alltoall is the traced MPI_Alltoall.
func (r *Rank) Alltoall(comm *mpi.Comm, parts [][]byte) ([][]byte, error) {
	return record(r, trace.LayerMPI, "MPI_Alltoall", func() ([][]byte, error) {
		return r.proc.Alltoall(comm, parts)
	}, func(out [][]byte) []string {
		return []string{comm.GID()}
	})
}

// Ibarrier is the traced MPI_Ibarrier.
func (r *Rank) Ibarrier(comm *mpi.Comm) (*mpi.Request, error) {
	return record(r, trace.LayerMPI, "MPI_Ibarrier", func() (*mpi.Request, error) {
		return r.proc.Ibarrier(comm)
	}, func(req *mpi.Request) []string {
		return []string{comm.GID(), reqID(req)}
	})
}

// Iallreduce is the traced MPI_Iallreduce.
func (r *Rank) Iallreduce(comm *mpi.Comm, val int64, op mpi.Op) (*mpi.Request, error) {
	return record(r, trace.LayerMPI, "MPI_Iallreduce", func() (*mpi.Request, error) {
		return r.proc.Iallreduce(comm, val, op)
	}, func(req *mpi.Request) []string {
		return []string{comm.GID(), op.String(), reqID(req)}
	})
}

// CommDup is the traced MPI_Comm_dup. The new communicator's globally unique
// id and membership are recorded at creation time, which is how the offline
// matcher pairs collectives on user-created communicators (§IV-C).
func (r *Rank) CommDup(comm *mpi.Comm) (*mpi.Comm, error) {
	return record(r, trace.LayerMPI, "MPI_Comm_dup", func() (*mpi.Comm, error) {
		return r.proc.CommDup(comm)
	}, func(nc *mpi.Comm) []string {
		return []string{comm.GID(), commGID(nc), commMembers(nc)}
	})
}

// CommSplit is the traced MPI_Comm_split.
func (r *Rank) CommSplit(comm *mpi.Comm, color, key int) (*mpi.Comm, error) {
	return record(r, trace.LayerMPI, "MPI_Comm_split", func() (*mpi.Comm, error) {
		return r.proc.CommSplit(comm, color, key)
	}, func(nc *mpi.Comm) []string {
		return []string{comm.GID(), itoa(int64(color)), itoa(int64(key)), commGID(nc), commMembers(nc)}
	})
}

// CommFree is the traced MPI_Comm_free.
func (r *Rank) CommFree(comm *mpi.Comm) error {
	gid := comm.GID()
	return r.Record(trace.LayerMPI, "MPI_Comm_free", func() []string {
		return []string{gid}
	}, func() error { return r.proc.CommFree(comm) })
}

func reqID(req *mpi.Request) string {
	if req == nil {
		return "req-nil"
	}
	return req.ID()
}

func boolArg(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

func reqListArgs(reqs []*mpi.Request) []string {
	args := []string{itoa(int64(len(reqs)))}
	for _, req := range reqs {
		args = append(args, reqID(req))
	}
	return args
}

func completionListArgs(reqs []*mpi.Request, idx []int, sts []mpi.Status) []string {
	args := append(reqListArgs(reqs), itoa(int64(len(idx))))
	for _, i := range idx {
		args = append(args, itoa(int64(i)))
	}
	for _, st := range sts {
		args = append(args, itoa(int64(st.Source)), itoa(int64(st.Tag)))
	}
	return args
}

func commGID(c *mpi.Comm) string {
	if c == nil {
		return "comm-nil"
	}
	return c.GID()
}

func commMembers(c *mpi.Comm) string {
	if c == nil {
		return ""
	}
	parts := make([]string, len(c.Members()))
	for i, m := range c.Members() {
		parts[i] = strconv.Itoa(m)
	}
	return strings.Join(parts, ",")
}
