// Package router runs a built routing scheme as a live packet-forwarding
// network: one goroutine per node, buffered channels as links, packets
// carrying only their destination label - the routing phase of the paper
// executed as real concurrent message passing rather than a host-side walk.
//
// Forwarding decisions come from the compiled data plane
// (internal/dataplane): New serves a scheme's compiled table, and every
// node goroutine makes its per-hop decision with the table's
// allocation-free Lookup and Step. Packets themselves are recycled
// through a sync.Pool - trace, crankback, and tried-tree buffers survive
// across sends - so a steady packet stream allocates only the caller-facing
// delivery path. The runtime has a managed lifecycle: Close stops every
// goroutine and waits for them (no fire-and-forget).
//
// The network degrades gracefully under node crashes (Crash/Recover): a node
// about to forward into a crashed neighbor re-chooses the packet's cluster
// tree from the destination label's remaining candidates, and when it holds
// no usable fallback itself the packet cranks back along its walked path so
// upstream hops - ultimately the source - retry with the trees they know.
// Rerouted packets arrive flagged Degraded - their path is still a valid
// scheme walk plus the detour - so callers can report per-query degraded
// stretch rather than a delivery failure.
package router

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lowmemroute/internal/dataplane"
	"lowmemroute/internal/obs"
)

// Packet is a message in flight: the destination vertex is its address; the
// header carries the compiled label entry (cluster tree) chosen at the
// source; Trace accumulates the vertex path for observability. Packets are
// pooled - all reference-typed fields are reused across sends.
type Packet struct {
	dst      int32 // destination vertex
	root     int32 // cluster tree the packet travels in; None until chosen
	entry    int32 // compiled label-entry index behind root
	Trace    []int
	tried    []int32 // roots abandoned because the tree ran into a crash
	upstream []int   // hops walked, for crankback after a downstream crash
	crank    bool    // walking backwards looking for a usable fallback tree
	reroutes int
	done     chan Delivery
	started  time.Time
}

// Delivery reports a completed (or failed) packet.
type Delivery struct {
	Path    []int
	Latency time.Duration
	Err     error
	// Degraded marks a packet that was rerouted around at least one crashed
	// node: the path is a valid scheme walk through a fallback cluster tree,
	// but its stretch may exceed the clean 4k-5 bound.
	Degraded bool
	// Reroutes counts the tree re-selections the packet went through.
	Reroutes int
}

// Network is a running packet-forwarding overlay.
type Network struct {
	tab   *dataplane.Table
	inbox []chan *Packet
	down  []atomic.Bool
	quit  chan struct{}
	wg    sync.WaitGroup

	// pool recycles packets (and their trace/tried/upstream buffers)
	// between sends.
	pool sync.Pool

	// lat, when non-nil, receives every completed packet's end-to-end
	// wall latency in nanoseconds (ObserveLatency).
	lat *obs.Histogram

	closeOnce sync.Once
}

// ErrClosed is returned by Send after Close.
var ErrClosed = errors.New("router: network closed")

// defaultQueueDepth bounds each node's inbox unless WithQueueDepth says
// otherwise; senders block when a node is saturated (backpressure, like a
// real forwarding queue).
const defaultQueueDepth = 64

// Option configures a Network at construction.
type Option func(*config)

type config struct {
	queueDepth int
}

// WithQueueDepth sets the per-node inbox capacity (default 64). Depth <= 0
// panics: an unbuffered inbox deadlocks a node forwarding to itself.
func WithQueueDepth(depth int) Option {
	return func(c *config) {
		if depth <= 0 {
			panic(fmt.Sprintf("router: queue depth must be positive, got %d", depth))
		}
		c.queueDepth = depth
	}
}

// New starts one forwarding goroutine per node of the compiled table. The
// table is read-only and may be shared with other readers.
func New(tab *dataplane.Table, opts ...Option) *Network {
	cfg := config{queueDepth: defaultQueueDepth}
	for _, o := range opts {
		o(&cfg)
	}
	n := tab.N()
	net := &Network{
		tab:   tab,
		inbox: make([]chan *Packet, n),
		down:  make([]atomic.Bool, n),
		quit:  make(chan struct{}),
	}
	net.pool.New = func() any {
		return &Packet{done: make(chan Delivery, 1)}
	}
	for v := 0; v < n; v++ {
		net.inbox[v] = make(chan *Packet, cfg.queueDepth)
	}
	for v := 0; v < n; v++ {
		net.wg.Add(1)
		go net.nodeLoop(v)
	}
	return net
}

// nodeLoop is one node's forwarding process.
func (net *Network) nodeLoop(v int) {
	defer net.wg.Done()
	for {
		select {
		case <-net.quit:
			return
		case p := <-net.inbox[v]:
			net.forward(v, p)
		}
	}
}

// forward makes one local routing decision and hands the packet on.
func (net *Network) forward(v int, p *Packet) {
	p.Trace = append(p.Trace, v)
	if net.down[v].Load() {
		// The node crashed while the packet was queued on its inbox.
		p.finish(Delivery{Path: p.Trace, Err: fmt.Errorf("router: packet lost at crashed node %d", v)})
		return
	}
	// Crankback lengthens the walk by up to one round trip per abandoned
	// tree, so the TTL scales with the trees tried (the clean budget is
	// unchanged when nothing was abandoned).
	if len(p.Trace) > (2*net.tab.N()+2)*(1+len(p.tried)) {
		p.finish(Delivery{Path: p.Trace, Err: fmt.Errorf("router: ttl exceeded at %d", v)})
		return
	}

	// Choose the cluster tree once, at the source: the lowest level whose
	// pivot cluster contains both endpoints (dataplane.Lookup's rule).
	if p.root == dataplane.None {
		hop := net.tab.Lookup(v, dataplane.Label(p.dst))
		if hop.Arrived {
			p.finish(Delivery{Path: p.Trace})
			return
		}
		if hop.Next == dataplane.None {
			p.finish(Delivery{Path: p.Trace, Err: fmt.Errorf("router: no common cluster at source %d", v)})
			return
		}
		p.root, p.entry = hop.Root, hop.Entry
	}

	var next int32
	if p.crank {
		// Walking backwards after a downstream crash: try to switch trees
		// here, else keep cranking toward the source.
		p.crank = false
		next = net.reroute(v, p)
		if next == dataplane.None {
			net.crankback(v, p)
			return
		}
	} else {
		var arrived, ok bool
		next, arrived, ok = net.tab.Step(v, p.entry)
		if !ok {
			p.finish(Delivery{Path: p.Trace, Err: fmt.Errorf("router: node %d lacks tree %d", v, p.root)})
			return
		}
		if arrived {
			p.finish(Delivery{Path: p.Trace})
			return
		}
		if next == dataplane.None {
			p.finish(Delivery{Path: p.Trace, Err: fmt.Errorf("router: dead end at %d", v)})
			return
		}
		if net.down[next].Load() {
			next = net.reroute(v, p)
			if next == dataplane.None {
				net.crankback(v, p)
				return
			}
		}
	}
	p.upstream = append(p.upstream, v)
	select {
	case net.inbox[next] <- p:
	case <-net.quit:
		p.finish(Delivery{Path: p.Trace, Err: ErrClosed})
	}
}

// crankback sends the packet one hop back along its walked path: the current
// tree is dead (its unique path to the destination runs through a crash) and
// v holds no usable fallback, so an upstream hop - ultimately the source -
// gets to retry with the trees it knows. The walk already happened over real
// graph edges, so the reverse hops exist.
func (net *Network) crankback(v int, p *Packet) {
	if len(p.upstream) == 0 {
		p.finish(Delivery{Path: p.Trace, Err: fmt.Errorf(
			"router: no usable cluster tree reaches %d after crashes (tried %v)", p.dst, p.tried)})
		return
	}
	prev := p.upstream[len(p.upstream)-1]
	p.upstream = p.upstream[:len(p.upstream)-1]
	if net.down[prev].Load() {
		p.finish(Delivery{Path: p.Trace, Err: fmt.Errorf(
			"router: upstream hop %d crashed during crankback to %d", prev, p.dst)})
		return
	}
	p.crank = true
	select {
	case net.inbox[prev] <- p:
	case <-net.quit:
		p.finish(Delivery{Path: p.Trace, Err: ErrClosed})
	}
}

// reroute re-chooses the packet's cluster tree at v after the current tree
// ran into a crashed next hop. Candidates come from the destination's
// compiled label entries in level order (so the fallback is the
// lowest-stretch tree still usable); a tree qualifies if v's table holds it,
// it was not abandoned already, and its next hop from v is alive. Returns
// the new next hop, or None when no candidate remains.
func (net *Network) reroute(v int, p *Packet) int32 {
	if !p.hasTried(p.root) {
		p.tried = append(p.tried, p.root)
	}
	lo, hi := net.tab.EntryRange(dataplane.Label(p.dst))
	for e := lo; e < hi; e++ {
		root := net.tab.EntryRoot(e)
		if p.hasTried(root) {
			continue
		}
		next, arrived, ok := net.tab.Step(v, e)
		if !ok || arrived || next == dataplane.None || net.down[next].Load() {
			continue
		}
		p.root, p.entry = root, e
		p.reroutes++
		return next
	}
	return dataplane.None
}

func (p *Packet) hasTried(root int32) bool {
	for _, r := range p.tried {
		if r == root {
			return true
		}
	}
	return false
}

func (p *Packet) finish(d Delivery) {
	d.Latency = time.Since(p.started)
	d.Degraded = p.reroutes > 0
	d.Reroutes = p.reroutes
	p.done <- d
}

// Crash marks node v as failed: packets are no longer forwarded into it, and
// packets already queued at it are lost. Safe for concurrent use; in-flight
// packets observe the crash at their next hop decision.
func (net *Network) Crash(v int) {
	if v >= 0 && v < len(net.down) {
		net.down[v].Store(true)
	}
}

// Recover brings a crashed node back; its table and links were never removed,
// so forwarding through it resumes immediately.
func (net *Network) Recover(v int) {
	if v >= 0 && v < len(net.down) {
		net.down[v].Store(false)
	}
}

// Down reports whether node v is currently crashed.
func (net *Network) Down(v int) bool {
	return v >= 0 && v < len(net.down) && net.down[v].Load()
}

// Send injects a packet at src addressed to dst and blocks until delivery
// (or failure). Safe for concurrent use.
func (net *Network) Send(src, dst int) (Delivery, error) {
	n := net.tab.N()
	if src < 0 || src >= n || dst < 0 || dst >= n {
		return Delivery{}, fmt.Errorf("router: endpoints (%d,%d) out of range", src, dst)
	}
	if net.down[src].Load() {
		return Delivery{}, fmt.Errorf("router: source %d is crashed", src)
	}
	p := net.pool.Get().(*Packet)
	p.dst = int32(dst)
	p.root = dataplane.None
	p.entry = dataplane.None
	p.Trace = p.Trace[:0]
	p.tried = p.tried[:0]
	p.upstream = p.upstream[:0]
	p.crank = false
	p.reroutes = 0
	p.started = time.Now()
	select {
	case net.inbox[src] <- p:
	case <-net.quit:
		return Delivery{}, ErrClosed
	}
	select {
	case d := <-p.done:
		// The delivery path aliases the packet's pooled trace buffer: copy
		// it out before the packet (and the buffer) goes back to the pool.
		if d.Path != nil {
			d.Path = append(make([]int, 0, len(d.Path)), d.Path...)
		}
		net.pool.Put(p)
		net.lat.Record(int64(d.Latency))
		return d, d.Err
	case <-net.quit:
		// The packet may still be in flight - it must not be pooled.
		return Delivery{}, ErrClosed
	}
}

// ObserveLatency installs a histogram that receives every delivery's
// end-to-end wall latency (nanoseconds). Call before the first Send; a nil
// histogram (the default) records nothing.
func (net *Network) ObserveLatency(h *obs.Histogram) { net.lat = h }

// Close stops all node goroutines and waits for them to exit. Idempotent.
func (net *Network) Close() {
	net.closeOnce.Do(func() { close(net.quit) })
	net.wg.Wait()
}
