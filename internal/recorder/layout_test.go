package recorder_test

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"verifyio/internal/recorder"
	"verifyio/internal/sim/mpi"
	"verifyio/internal/sim/mpiio"
	"verifyio/internal/sim/posixfs"
	"verifyio/internal/trace"
)

// nameFields name a handle, file, communicator or request: never empty.
var nameFields = []trace.Field{trace.Handle, trace.Path, trace.Comm, trace.Request, trace.NewComm}

// unwrapped are the rows of calls no wrapper emits; the replay or the scan
// reads them in traces of real programs.
var unwrapped = []string{"fdatasync", "MPI_File_set_size", "MPI_File_read_all"}

// expectations collects, for rank 0's records, the values each wrapper was
// called with, by layout token; a run's values and a status pair are
// comma-joined. Only rank 0's goroutine adds to it.
type expectations struct {
	fns map[string][]map[string]string // function -> its records in order
}

// add expects the next record of fn on rank 0 to hold the given
// token/value pairs.
func (e *expectations) add(r *recorder.Rank, fn string, kv ...any) {
	if r.Rank() != 0 {
		return
	}
	w := map[string]string{}
	for i := 0; i < len(kv); i += 2 {
		w[kv[i].(string)] = fmt.Sprint(kv[i+1])
	}
	e.fns[fn] = append(e.fns[fn], w)
}

// TestEveryWrapperMatchesItsCallRow drives every traced POSIX, MPI and
// MPI-IO wrapper and checks each record it emits against the function's row
// of the call table: a row exists, the arguments have the row's arity, its
// integer fields parse, its handles are not empty, and — for the values the
// test chose, distinct within each record where they can be — every field
// read through the row holds what the wrapper was called with. Swapping two
// arguments in an emitter, or two fields in a row, fails it.
func TestEveryWrapperMatchesItsCallRow(t *testing.T) {
	exp := &expectations{fns: map[string][]map[string]string{}}
	env := recorder.NewEnv(3, recorder.Options{FSMode: posixfs.ModePOSIX,
		MPIOptions: []mpi.Option{mpi.WithTimeout(5 * time.Second)}})
	err := env.Run(func(r *recorder.Rank) error {
		if r.Rank() == 0 {
			if err := posixCalls(r, exp); err != nil {
				return fmt.Errorf("posix: %w", err)
			}
		}
		if err := mpiCalls(r, exp); err != nil {
			return fmt.Errorf("mpi: %w", err)
		}
		if err := mpiioCalls(r, exp); err != nil {
			return fmt.Errorf("mpi-io: %w", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := env.Trace()

	seen := map[string]bool{}
	for rank := range tr.Ranks {
		nth := map[string]int{}
		tr.ReadRank(rank, func(steps []trace.Step) {
			for i := range steps {
				s := &steps[i]
				rec, c := s.Rec, s.Call
				if rec.Layer != trace.LayerPOSIX && rec.Layer != trace.LayerMPI && rec.Layer != trace.LayerMPIIO {
					continue
				}
				if c == nil {
					t.Errorf("%s: no row in the call table", rec)
					continue
				}
				seen[rec.Func] = true
				var want map[string]string
				if w := exp.fns[rec.Func]; rank == 0 && nth[rec.Func] < len(w) {
					want = w[nth[rec.Func]]
				}
				nth[rec.Func]++
				checkRow(t, s, want)
			}
		})
	}
	for _, c := range trace.Calls {
		if !seen[c.Name] && !slices.Contains(unwrapped, c.Name) {
			t.Errorf("no wrapper emitted %s", c.Name)
		}
	}
	for fn, ws := range exp.fns {
		if !seen[fn] {
			t.Errorf("%d expected %s records, none emitted", len(ws), fn)
		}
	}
}

// checkRow walks the arguments of s's record along its row, reading each
// run's length off its counting field, and holds each token to want: an
// integer field must hold a decimal, a name field no empty name.
func checkRow(t *testing.T, s *trace.Step, want map[string]string) {
	t.Helper()
	rec, c := s.Rec, s.Call
	p := 0
	for i, e := range c.Elems {
		if e.Optional && i == len(c.Elems)-1 && p == len(rec.Args) {
			break
		}
		n := 1
		if e.By != 0 {
			v, ok := s.Int(c.Pos(s, e.By))
			if !ok || v < 0 {
				t.Errorf("%s: the count of %s is %q", rec, e.Name, s.Arg(c.Pos(s, e.By)))
				return
			}
			n = int(v)
		}
		end := p + n*e.Width()
		if end > len(rec.Args) {
			t.Errorf("%s: %d arguments, row %q needs more", rec, len(rec.Args), rowString(c))
			return
		}
		vals := rec.Args[p:end]
		if e.Field != 0 {
			if at := c.Pos(s, e.Field); at != p {
				t.Errorf("%s: the row reads %s at %d, its layout puts it at %d", rec, e.Name, at, p)
			}
		}
		for _, v := range vals {
			if e.Field.Integer() {
				if _, err := strconv.ParseInt(v, 10, 64); err != nil {
					t.Errorf("%s: %s %q is not an integer", rec, e.Name, v)
				}
			}
			if slices.Contains(nameFields, e.Field) && v == "" {
				t.Errorf("%s: empty %s", rec, e.Name)
			}
		}
		switch e.Field {
		case trace.Whence:
			if _, err := trace.ParseWhence(vals[0]); err != nil {
				t.Errorf("%s: %v", rec, err)
			}
		case trace.Flag:
			if vals[0] != "0" && vals[0] != "1" {
				t.Errorf("%s: flag %q", rec, vals[0])
			}
		}
		if w, ok := want[e.Name]; ok && strings.Join(vals, ",") != w {
			t.Errorf("%s: %s = %q, the wrapper was called with %q", rec, e.Name, strings.Join(vals, ","), w)
		}
		p = end
	}
	if p != len(rec.Args) {
		t.Errorf("%s: %d arguments, row %q has %d", rec, len(rec.Args), rowString(c), p)
	}
}

func rowString(c *trace.Call) string {
	toks := make([]string, len(c.Elems))
	for i, e := range c.Elems {
		toks[i] = e.Name
	}
	return strings.Join(toks, " ")
}

// posixCalls drives every POSIX wrapper once on rank 0, the append-mode
// writes in both handle kinds included.
func posixCalls(r *recorder.Rank, exp *expectations) error {
	const path = "posix.bin"
	fd, err := r.Open(path, posixfs.ORdwr|posixfs.OCreate)
	if err != nil {
		return err
	}
	exp.add(r, "open", "path", path, "flags", "rw|creat", "handle", fd)
	steps := []func() error{
		func() error {
			exp.add(r, "pwrite", "handle", fd, "count", 21, "offset", 31)
			_, err := r.Pwrite(fd, make([]byte, 21), 31)
			return err
		},
		func() error {
			exp.add(r, "pread", "handle", fd, "count", 22, "offset", 32)
			_, err := r.Pread(fd, 22, 32)
			return err
		},
		func() error {
			exp.add(r, "write", "handle", fd, "count", 23)
			_, err := r.Write(fd, make([]byte, 23))
			return err
		},
		func() error {
			exp.add(r, "read", "handle", fd, "count", 24)
			_, err := r.Read(fd, 24)
			return err
		},
		func() error { // from 23 + 24 bytes in
			exp.add(r, "lseek", "handle", fd, "offset", 25, "whence", "SEEK_CUR", "pos", 72)
			_, err := r.Lseek(fd, 25, posixfs.SeekCur)
			return err
		},
		func() error {
			exp.add(r, "writev", "handle", fd, "iovcnt", 2, "iovlen", "26,27")
			_, err := r.Writev(fd, [][]byte{make([]byte, 26), make([]byte, 27)})
			return err
		},
		func() error {
			exp.add(r, "readv", "handle", fd, "iovcnt", 2, "iovlen", "28,29")
			_, err := r.Readv(fd, []int{28, 29})
			return err
		},
		func() error {
			exp.add(r, "ftruncate", "handle", fd, "size", 41)
			return r.Ftruncate(fd, 41)
		},
		func() error {
			exp.add(r, "fsync", "handle", fd)
			return r.Fsync(fd)
		},
		func() error {
			exp.add(r, "stat", "path", path, "filesize", 41)
			_, err := r.Stat(path)
			return err
		},
		func() error {
			exp.add(r, "close", "handle", fd)
			return r.Close(fd)
		},
		func() error {
			// Writes through an append handle record where they landed.
			afd, err := r.Open(path, posixfs.OWronly|posixfs.OAppend)
			if err != nil {
				return err
			}
			exp.add(r, "open", "path", path, "flags", "w|append", "handle", afd)
			exp.add(r, "write", "handle", afd, "count", 42, "pos", 41)
			if _, err := r.Write(afd, make([]byte, 42)); err != nil {
				return err
			}
			exp.add(r, "writev", "handle", afd, "iovcnt", 2, "iovlen", "43,44", "pos", 83)
			if _, err := r.Writev(afd, [][]byte{make([]byte, 43), make([]byte, 44)}); err != nil {
				return err
			}
			exp.add(r, "close", "handle", afd)
			return r.Close(afd)
		},
		func() error {
			s, err := r.Fopen("stream.bin", "w+")
			if err != nil {
				return err
			}
			// A stream's id is its descriptor: the fifth, after stdio and
			// the two opens above.
			exp.add(r, "fopen", "path", "stream.bin", "mode", "w+", "handle", 5)
			exp.add(r, "fwrite", "handle", 5, "size", 8, "count", 9)
			if _, err := s.Fwrite(make([]byte, 72), 8, 9); err != nil {
				return err
			}
			exp.add(r, "fseek", "handle", 5, "offset", -10, "whence", "SEEK_END", "pos", 62)
			if err := s.Fseek(-10, posixfs.SeekEnd); err != nil {
				return err
			}
			exp.add(r, "fread", "handle", 5, "size", 2, "count", 3)
			if _, err := s.Fread(2, 3); err != nil {
				return err
			}
			exp.add(r, "fclose", "handle", 5)
			if err := s.Fclose(); err != nil {
				return err
			}
			a, err := r.Fopen("stream.bin", "a")
			if err != nil {
				return err
			}
			exp.add(r, "fopen", "path", "stream.bin", "mode", "a", "handle", 6)
			exp.add(r, "fwrite", "handle", 6, "size", 11, "count", 1, "pos", 72)
			if _, err := a.Fwrite(make([]byte, 11), 11, 1); err != nil {
				return err
			}
			exp.add(r, "fclose", "handle", 6)
			return a.Fclose()
		},
		func() error {
			exp.add(r, "unlink", "path", "stream.bin")
			return r.Unlink("stream.bin")
		},
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// mpiCalls drives every MPI wrapper on three ranks; rank 0's records carry
// expectations.
func mpiCalls(r *recorder.Rank, exp *expectations) error {
	me, world := r.Rank(), r.Proc().CommWorld()
	cw := world.GID()
	// Point to point, in three rounds a barrier apart, so rank 0's wildcard
	// receive finds one message.
	switch me {
	case 0:
		exp.add(r, "MPI_Send", "comm", cw, "peer", 1, "tag", 71, "count", 21)
		if err := r.Send(world, 1, 71, make([]byte, 21)); err != nil {
			return err
		}
		exp.add(r, "MPI_Recv", "comm", cw, "peer", mpi.AnySource, "tag", mpi.AnyTag, "count", 22, "status", "1,72")
		if _, _, err := r.Recv(world, mpi.AnySource, mpi.AnyTag); err != nil {
			return err
		}
	case 1:
		if _, _, err := r.Recv(world, 0, 71); err != nil {
			return err
		}
		if err := r.Send(world, 0, 72, make([]byte, 22)); err != nil {
			return err
		}
	}
	if err := r.Barrier(world); err != nil {
		return err
	}
	// A ring: rank i sends i+1 tag 73+i and receives from any source.
	prev := (me + 2) % 3
	if me == 0 {
		exp.add(r, "MPI_Sendrecv", "comm", cw, "peer", 1, "tag", 73, "count", 23, "source", mpi.AnySource,
			"rtag", 75, "rcount", 25, "status", "2,75")
	}
	if _, _, err := r.Sendrecv(world, (me+1)%3, 73+me, make([]byte, 23+me), mpi.AnySource, 73+prev); err != nil {
		return err
	}
	// Rank 1 sends rank 0 a message for each receive it posts below, before
	// a barrier, so every later poll finds its message.
	if me == 1 {
		for tag := 80; tag < 89; tag++ {
			if err := r.Send(world, 0, tag, make([]byte, 3)); err != nil {
				return err
			}
		}
	}
	if err := r.Barrier(world); err != nil {
		return err
	}
	if me == 0 {
		if err := requestCalls(r, exp, world); err != nil {
			return err
		}
	}
	if me == 2 {
		for tag := 90; tag < 96; tag++ {
			if _, _, err := r.Recv(world, 0, tag); err != nil {
				return err
			}
		}
	}

	// Collectives.
	exp.add(r, "MPI_Barrier", "comm", cw)
	if err := r.Barrier(world); err != nil {
		return err
	}
	exp.add(r, "MPI_Bcast", "comm", cw, "root", 2, "count", 31)
	if _, err := r.Bcast(world, 2, make([]byte, 31)); err != nil {
		return err
	}
	exp.add(r, "MPI_Reduce", "comm", cw, "root", 1, "op", mpi.OpSum)
	if _, err := r.Reduce(world, 1, 5, mpi.OpSum); err != nil {
		return err
	}
	exp.add(r, "MPI_Allreduce", "comm", cw, "op", mpi.OpMax)
	if _, err := r.Allreduce(world, 5, mpi.OpMax); err != nil {
		return err
	}
	exp.add(r, "MPI_Scan", "comm", cw, "op", mpi.OpMin)
	if _, err := r.Scan(world, 5, mpi.OpMin); err != nil {
		return err
	}
	exp.add(r, "MPI_Exscan", "comm", cw, "op", mpi.OpSum)
	if _, err := r.Exscan(world, 5, mpi.OpSum); err != nil {
		return err
	}
	exp.add(r, "MPI_Gather", "comm", cw, "root", 2)
	if _, err := r.Gather(world, 2, []byte{1}); err != nil {
		return err
	}
	exp.add(r, "MPI_Allgather", "comm", cw)
	if _, err := r.Allgather(world, []byte{1}); err != nil {
		return err
	}
	exp.add(r, "MPI_Scatter", "comm", cw, "root", 1)
	if _, err := r.Scatter(world, 1, [][]byte{{1}, {2}, {3}}); err != nil {
		return err
	}
	exp.add(r, "MPI_Alltoall", "comm", cw)
	if _, err := r.Alltoall(world, [][]byte{{1}, {2}, {3}}); err != nil {
		return err
	}
	req, err := r.Ibarrier(world)
	if err != nil {
		return err
	}
	exp.add(r, "MPI_Ibarrier", "comm", cw, "request", req.ID())
	if _, err := r.Wait(req); err != nil {
		return err
	}
	if req, err = r.Iallreduce(world, 5, mpi.OpMax); err != nil {
		return err
	}
	exp.add(r, "MPI_Iallreduce", "comm", cw, "op", mpi.OpMax, "request", req.ID())
	if _, err := r.Wait(req); err != nil {
		return err
	}
	dup, err := r.CommDup(world)
	if err != nil {
		return err
	}
	exp.add(r, "MPI_Comm_dup", "comm", cw, "newcomm", dup.GID(), "members", "0,1,2")
	split, err := r.CommSplit(world, me%2, 7-me)
	if err != nil {
		return err
	}
	exp.add(r, "MPI_Comm_split", "comm", cw, "color", 0, "key", 7, "newcomm", split.GID(), "members", "2,0")
	exp.add(r, "MPI_Comm_free", "comm", dup.GID())
	return r.CommFree(dup)
}

// requestCalls drives the non-blocking point-to-point calls and every
// completion call on rank 0: receives of rank 1's messages (tags 80 on), and
// sends to rank 2 (tags 90 on), which complete at once.
func requestCalls(r *recorder.Rank, exp *expectations, world *mpi.Comm) error {
	cw := world.GID()
	recvTag, sendTag := 80, 90
	irecv := func() (*mpi.Request, error) {
		req, err := r.Irecv(world, 1, recvTag)
		if err == nil {
			exp.add(r, "MPI_Irecv", "comm", cw, "peer", 1, "tag", recvTag, "request", req.ID())
		}
		recvTag++
		return req, err
	}
	isend := func() (*mpi.Request, error) {
		req, err := r.Isend(world, 2, sendTag, make([]byte, 4))
		if err == nil {
			exp.add(r, "MPI_Isend", "comm", cw, "peer", 2, "tag", sendTag, "count", 4, "request", req.ID())
		}
		sendTag++
		return req, err
	}
	statuses := func(sts ...mpi.Status) string {
		s := make([]string, len(sts))
		for i, st := range sts {
			s[i] = fmt.Sprintf("%d,%d", st.Source, st.Tag)
		}
		return strings.Join(s, ",")
	}
	ids := func(reqs ...*mpi.Request) string {
		s := make([]string, len(reqs))
		for i, req := range reqs {
			s[i] = req.ID()
		}
		return strings.Join(s, ",")
	}
	ints := func(v []int) string { return strings.ReplaceAll(strings.Trim(fmt.Sprint(v), "[]"), " ", ",") }

	a, err := irecv()
	if err != nil {
		return err
	}
	// A completion's record holds what its wrapper returned, so its
	// expectation is added once the call returns.
	st, err := r.Wait(a)
	if err != nil {
		return err
	}
	exp.add(r, "MPI_Wait", "request", a.ID(), "status", statuses(st))
	b, _ := irecv()
	c, err := irecv()
	if err != nil {
		return err
	}
	sts, err := r.Waitall([]*mpi.Request{b, c})
	if err != nil {
		return err
	}
	exp.add(r, "MPI_Waitall", "nreq", 2, "request", ids(b, c), "status", statuses(sts...))
	d, _ := isend()
	e, err := irecv()
	if err != nil {
		return err
	}
	idx, st, err := r.Waitany([]*mpi.Request{d, e})
	if err != nil {
		return err
	}
	exp.add(r, "MPI_Waitany", "nreq", 2, "request", ids(d, e), "index", idx, "status", statuses(st))
	reqs := []*mpi.Request{d, e}
	reqs[idx] = nil
	rest := slices.DeleteFunc(reqs, func(q *mpi.Request) bool { return q == nil })
	if _, err := r.Waitall(rest); err != nil {
		return err
	}
	f, _ := irecv()
	g, err := isend()
	if err != nil {
		return err
	}
	some, sts, err := r.Waitsome([]*mpi.Request{f, g})
	if err != nil {
		return err
	}
	exp.add(r, "MPI_Waitsome", "nreq", 2, "request", ids(f, g), "outcount", len(some), "index", ints(some), "status", statuses(sts...))
	if len(some) < 2 {
		if _, err := r.Waitall([]*mpi.Request{[]*mpi.Request{f, g}[1-some[0]]}); err != nil {
			return err
		}
	}
	h, err := irecv()
	if err != nil {
		return err
	}
	done, st, err := r.Test(h)
	if err != nil || !done {
		return fmt.Errorf("MPI_Test of a delivered message: done=%v, %v", done, err)
	}
	exp.add(r, "MPI_Test", "request", h.ID(), "flag", 1, "status", statuses(st))
	i, _ := isend()
	j, err := irecv()
	if err != nil {
		return err
	}
	done, sts, err = r.Testall([]*mpi.Request{i, j})
	if err != nil || !done {
		return fmt.Errorf("MPI_Testall of completed requests: done=%v, %v", done, err)
	}
	exp.add(r, "MPI_Testall", "nreq", 2, "request", ids(i, j), "flag", 1, "status", statuses(sts...))
	k, _ := isend()
	l, err := irecv()
	if err != nil {
		return err
	}
	some, sts, err = r.Testsome([]*mpi.Request{k, l})
	if err != nil || len(some) != 2 {
		return fmt.Errorf("MPI_Testsome of completed requests: %v, %v", some, err)
	}
	exp.add(r, "MPI_Testsome", "nreq", 2, "request", ids(k, l), "outcount", 2, "index", ints(some), "status", statuses(sts...))
	m, _ := isend()
	n, err := isend()
	if err != nil {
		return err
	}
	idx, done, st, err = r.Testany([]*mpi.Request{m, n})
	if err != nil || !done || idx != 0 {
		return fmt.Errorf("MPI_Testany of completed requests: index=%d, done=%v, %v", idx, done, err)
	}
	exp.add(r, "MPI_Testany", "nreq", 2, "request", ids(m, n), "index", 0, "flag", 1, "status", statuses(st))
	o, err := irecv()
	if err != nil {
		return err
	}
	idx, done, st, err = r.Testany([]*mpi.Request{nil, o})
	if err != nil || !done || idx != 1 {
		return fmt.Errorf("MPI_Testany of a delivered message: index=%d, done=%v, %v", idx, done, err)
	}
	exp.add(r, "MPI_Testany", "nreq", 2, "request", "req-nil,"+o.ID(), "index", 1, "flag", 1, "status", statuses(st))
	_, err = r.Waitall([]*mpi.Request{n})
	return err
}

// mpiioCalls drives every MPI-IO wrapper on every rank.
func mpiioCalls(r *recorder.Rank, exp *expectations) error {
	world := r.Proc().CommWorld()
	f, err := mpiio.Open(r, world, "mpiio.bin", mpiio.ModeRdwr|mpiio.ModeCreate, mpiio.Config{})
	if err != nil {
		return err
	}
	fd := f.Fd()
	exp.add(r, "MPI_File_open", "comm", world.GID(), "path", "mpiio.bin", "amode", "MPI_MODE_RDWR|MPI_MODE_CREATE", "handle", fd)
	off := int64(64 * r.Rank())
	steps := []func() error{
		func() error {
			exp.add(r, "MPI_File_set_view", "handle", fd, "disp", 100, "etype", "MPI_BYTE", "filetype", "contig")
			return f.SetView(100, "MPI_BYTE", "contig")
		},
		func() error {
			exp.add(r, "MPI_File_seek", "handle", fd, "offset", 6, "mpiwhence", posixfs.SeekSet, "pos", 6)
			if err := f.FileSeek(6, posixfs.SeekSet); err != nil {
				return err
			}
			exp.add(r, "MPI_File_seek", "handle", fd, "offset", 5, "mpiwhence", posixfs.SeekCur, "pos", 11)
			return f.FileSeek(5, posixfs.SeekCur)
		},
		func() error {
			exp.add(r, "MPI_File_write_at", "handle", fd, "offset", 100+off, "count", 12)
			return f.WriteAt(off, make([]byte, 12))
		},
		func() error {
			exp.add(r, "MPI_File_read_at", "handle", fd, "offset", 100+off, "count", 13)
			_, err := f.ReadAt(off, 13)
			return err
		},
		func() error {
			exp.add(r, "MPI_File_write", "handle", fd, "count", 14)
			return f.Write(make([]byte, 14))
		},
		func() error {
			exp.add(r, "MPI_File_read", "handle", fd, "count", 15)
			_, err := f.Read(15)
			return err
		},
		func() error {
			exp.add(r, "MPI_File_write_at_all", "handle", fd, "offset", 116+off, "count", 17)
			return f.WriteAtAll(16+off, make([]byte, 17))
		},
		func() error {
			exp.add(r, "MPI_File_write_all", "handle", fd, "count", 18)
			return f.WriteAll(make([]byte, 18))
		},
		func() error {
			exp.add(r, "MPI_File_read_at_all", "handle", fd, "offset", 119+off, "count", 20)
			_, err := f.ReadAtAll(19+off, 20)
			return err
		},
		func() error {
			exp.add(r, "MPI_File_sync", "handle", fd)
			return f.Sync()
		},
		func() error {
			exp.add(r, "MPI_File_close", "handle", fd)
			return f.Close()
		},
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}
