package mpi

import (
	"fmt"
	"time"
)

// Proc is one rank's handle to the simulated MPI job. A Proc must be used
// only from its own goroutine, like a real MPI process.
type Proc struct {
	world   *World
	rank    int
	comm    *Comm
	reqs    map[string]*Request
	nextReq int
	sendSeq int
	collC   map[string]int // per-communicator collective-slot counter
}

// Rank returns this process's world rank.
func (p *Proc) Rank() int { return p.rank }

// Size returns the world size.
func (p *Proc) Size() int { return p.world.n }

// CommWorld returns MPI_COMM_WORLD.
func (p *Proc) CommWorld() *Comm { return p.comm }

// Status mirrors MPI_Status: the actual source (communicator rank) and tag
// of a received message. The tracer records it so the offline matcher can
// resolve wildcard receives, exactly as the paper describes.
type Status struct {
	Source int
	Tag    int
}

// Send performs a standard-mode send, modelled as buffered: it enqueues the
// message and returns. dst is a communicator rank.
func (p *Proc) Send(comm *Comm, dst, tag int, data []byte) error {
	me, err := comm.check(p.rank)
	if err != nil {
		return err
	}
	if dst < 0 || dst >= comm.Size() {
		return fmt.Errorf("mpi: send to invalid rank %d on %s", dst, comm.gid)
	}
	if tag < 0 {
		return fmt.Errorf("mpi: send with invalid tag %d", tag)
	}
	w := p.world
	w.mu.Lock()
	defer w.mu.Unlock()
	p.sendSeq++
	cp := make([]byte, len(data))
	copy(cp, data)
	key := mailKey{comm: comm.gid, dst: comm.members[dst]}
	w.mail[key] = append(w.mail[key], &envelope{src: me, tag: tag, data: cp, seq: p.sendSeq})
	w.cond.Broadcast()
	return nil
}

// Recv blocks until a message matching (src, tag) arrives on comm. src may
// be AnySource and tag may be AnyTag; the returned Status carries the actual
// values.
func (p *Proc) Recv(comm *Comm, src, tag int) ([]byte, Status, error) {
	req, err := p.Irecv(comm, src, tag)
	if err != nil {
		return nil, Status{}, err
	}
	st, err := p.Wait(req)
	if err != nil {
		return nil, Status{}, err
	}
	return req.buf, st, nil
}

// Sendrecv performs MPI_Sendrecv: a combined send to dst and receive from
// src (each with its own tag), deadlock-free by construction under the
// buffered send model.
func (p *Proc) Sendrecv(comm *Comm, dst, sendTag int, data []byte, src, recvTag int) ([]byte, Status, error) {
	if err := p.Send(comm, dst, sendTag, data); err != nil {
		return nil, Status{}, err
	}
	return p.Recv(comm, src, recvTag)
}

// Isend starts a non-blocking send. Under the buffered model the message
// departs immediately, so the request is born complete — but callers must
// still Wait/Test it, and the tracer records both ends, which is what the
// offline matcher consumes.
func (p *Proc) Isend(comm *Comm, dst, tag int, data []byte) (*Request, error) {
	if err := p.Send(comm, dst, tag, data); err != nil {
		return nil, err
	}
	req := p.newRequest("isend")
	req.done = true
	return req, nil
}

// Irecv posts a non-blocking receive. The message is matched when the
// request completes through Wait/Test and friends.
func (p *Proc) Irecv(comm *Comm, src, tag int) (*Request, error) {
	me, err := comm.check(p.rank)
	if err != nil {
		return nil, err
	}
	if src != AnySource && (src < 0 || src >= comm.Size()) {
		return nil, fmt.Errorf("mpi: recv from invalid rank %d on %s", src, comm.gid)
	}
	req := p.newRequest("irecv")
	req.comm, req.src, req.tag, req.me = comm, src, tag, me
	return req, nil
}

// Request identifies an outstanding non-blocking operation. The tracer
// records its ID at the initiating call and again at the completing
// Wait/Test call, which is how the matcher ties the two together.
type Request struct {
	id   string
	kind string // isend, irecv, icoll

	done   bool
	status Status
	buf    []byte

	// irecv matching state.
	comm     *Comm
	src, tag int
	me       int

	// icoll completion closure (runs the rendezvous at Wait time).
	complete func(deadline time.Time, block bool) (bool, error)
}

// ID returns the request's per-rank unique identifier.
func (r *Request) ID() string { return r.id }

// Kind reports the operation kind ("isend", "irecv", "icoll").
func (r *Request) Kind() string { return r.kind }

// Data returns the received payload of a completed receive request.
func (r *Request) Data() []byte { return r.buf }

func (p *Proc) newRequest(kind string) *Request {
	id := fmt.Sprintf("req-%d.%d", p.rank, p.nextReq)
	p.nextReq++
	req := &Request{id: id, kind: kind}
	p.reqs[id] = req
	return req
}

// tryComplete attempts to finish req. With block set it waits (up to the
// world deadline); otherwise it polls once. Callers must NOT hold w.mu.
func (p *Proc) tryComplete(req *Request, block bool) (bool, error) {
	if req.done {
		return true, nil
	}
	switch req.kind {
	case "irecv":
		return p.tryRecv(req, block)
	case "icoll":
		return req.complete(p.world.deadline(), block)
	default:
		return true, nil
	}
}

func (p *Proc) tryRecv(req *Request, block bool) (bool, error) {
	w := p.world
	w.mu.Lock()
	defer w.mu.Unlock()
	key := mailKey{comm: req.comm.gid, dst: p.rank}
	match := func() *envelope {
		q := w.mail[key]
		bestIdx := -1
		for i, env := range q {
			if req.src != AnySource && env.src != req.src {
				continue
			}
			if req.tag != AnyTag && env.tag != req.tag {
				continue
			}
			// Non-overtaking: earliest matching send wins. Envelope
			// order in the queue is arrival order, which preserves
			// per-sender send order.
			bestIdx = i
			break
		}
		if bestIdx < 0 {
			return nil
		}
		env := q[bestIdx]
		w.mail[key] = append(q[:bestIdx], q[bestIdx+1:]...)
		return env
	}
	finish := func(env *envelope) {
		req.done = true
		req.buf = env.data
		req.status = Status{Source: env.src, Tag: env.tag}
	}
	if env := match(); env != nil {
		finish(env)
		return true, nil
	}
	if !block {
		return false, nil
	}
	deadline := w.deadline()
	for {
		if err := w.waitLocked(func() bool { return len(w.mail[key]) > 0 }, deadline); err != nil {
			return false, fmt.Errorf("%w: rank %d waiting for recv(src=%d, tag=%d) on %s",
				ErrDeadlock, p.rank, req.src, req.tag, req.comm.gid)
		}
		if env := match(); env != nil {
			finish(env)
			return true, nil
		}
		// A message arrived but did not match; keep waiting for one that
		// does. Re-arm by waiting for the queue to change again.
		if time.Now().After(deadline) {
			return false, ErrDeadlock
		}
		w.cond.Wait()
	}
}

// Wait blocks until req completes and returns its status.
func (p *Proc) Wait(req *Request) (Status, error) {
	if _, err := p.tryComplete(req, true); err != nil {
		return Status{}, err
	}
	delete(p.reqs, req.id)
	return req.status, nil
}

// Test polls req once; done reports whether it completed.
func (p *Proc) Test(req *Request) (done bool, st Status, err error) {
	ok, err := p.tryComplete(req, false)
	if err != nil {
		return false, Status{}, err
	}
	if ok {
		delete(p.reqs, req.id)
		return true, req.status, nil
	}
	return false, Status{}, nil
}

// Waitall blocks until every request completes.
func (p *Proc) Waitall(reqs []*Request) ([]Status, error) {
	sts := make([]Status, len(reqs))
	for i, r := range reqs {
		st, err := p.Wait(r)
		if err != nil {
			return nil, err
		}
		sts[i] = st
	}
	return sts, nil
}

// Waitany blocks until at least one request completes and returns its index.
func (p *Proc) Waitany(reqs []*Request) (int, Status, error) {
	if len(reqs) == 0 {
		return -1, Status{}, fmt.Errorf("mpi: Waitany on empty request list")
	}
	deadline := p.world.deadline()
	for {
		for i, r := range reqs {
			if r == nil {
				continue
			}
			ok, err := p.tryComplete(r, false)
			if err != nil {
				return -1, Status{}, err
			}
			if ok {
				delete(p.reqs, r.id)
				return i, r.status, nil
			}
		}
		if time.Now().After(deadline) {
			return -1, Status{}, fmt.Errorf("%w: rank %d in Waitany", ErrDeadlock, p.rank)
		}
		p.yield()
	}
}

// Testany polls the requests once, in order, and completes the first one
// done: its index, with done true. When none is done it reports done false;
// when none is active (every one nil) done true, as MPI_Testany does. Both
// give index -1, MPI_UNDEFINED.
func (p *Proc) Testany(reqs []*Request) (index int, done bool, st Status, err error) {
	active := false
	for i, r := range reqs {
		if r == nil {
			continue
		}
		active = true
		ok, err := p.tryComplete(r, false)
		if err != nil {
			return -1, false, Status{}, err
		}
		if ok {
			delete(p.reqs, r.id)
			return i, true, r.status, nil
		}
	}
	return -1, !active, Status{}, nil
}

// Waitsome blocks until at least one request completes, then returns the
// indices of all currently complete requests.
func (p *Proc) Waitsome(reqs []*Request) ([]int, []Status, error) {
	first, st, err := p.Waitany(reqs)
	if err != nil {
		return nil, nil, err
	}
	idx := []int{first}
	sts := []Status{st}
	for i, r := range reqs {
		if i == first || r == nil {
			continue
		}
		ok, err := p.tryComplete(r, false)
		if err != nil {
			return nil, nil, err
		}
		if ok {
			delete(p.reqs, r.id)
			idx = append(idx, i)
			sts = append(sts, r.status)
		}
	}
	return idx, sts, nil
}

// Testall polls all requests; done only when every one is complete (in which
// case all are released, mirroring MPI_Testall semantics).
func (p *Proc) Testall(reqs []*Request) (bool, []Status, error) {
	for _, r := range reqs {
		ok, err := p.tryComplete(r, false)
		if err != nil {
			return false, nil, err
		}
		if !ok {
			return false, nil, nil
		}
	}
	sts := make([]Status, len(reqs))
	for i, r := range reqs {
		delete(p.reqs, r.id)
		sts[i] = r.status
	}
	return true, sts, nil
}

// Testsome polls all requests and returns the indices of those that have
// completed; possibly none.
func (p *Proc) Testsome(reqs []*Request) ([]int, []Status, error) {
	var idx []int
	var sts []Status
	for i, r := range reqs {
		if r == nil {
			continue
		}
		ok, err := p.tryComplete(r, false)
		if err != nil {
			return nil, nil, err
		}
		if ok {
			delete(p.reqs, r.id)
			idx = append(idx, i)
			sts = append(sts, r.status)
		}
	}
	return idx, sts, nil
}

// yield briefly parks the goroutine so polling loops don't spin hot.
func (p *Proc) yield() {
	w := p.world
	w.mu.Lock()
	w.cond.Wait()
	w.mu.Unlock()
}
