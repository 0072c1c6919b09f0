// Package route implements the energy-efficient ad-hoc routing protocols
// the paper's link-layer survey points to: minimum-hop routing as the
// baseline, minimum-transmission-energy routing (MTPR-style), battery-aware
// max-min routing (MMBCR-style) and the conditional hybrid (CMMBCR-style)
// that uses minimum energy while every node on the path is healthy and
// switches to battery protection below a threshold.
//
// The radio cost model is the standard first-order one: transmitting b bits
// over distance d costs b·(Eelec + Eamp·d²); receiving costs b·Eelec.
package route

import (
	"fmt"
	"math"
	"math/rand"
)

// Policy selects a path objective.
type Policy int

// Routing policies.
const (
	// MinHop minimizes hop count (energy-oblivious baseline).
	MinHop Policy = iota
	// MinEnergy minimizes total transmission+reception energy.
	MinEnergy
	// MaxMinBattery maximizes the minimum residual battery on the path.
	MaxMinBattery
	// Conditional uses MinEnergy while all nodes on that path are above
	// the battery threshold, otherwise MaxMinBattery (CMMBCR).
	Conditional
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case MinHop:
		return "min-hop"
	case MinEnergy:
		return "min-energy"
	case MaxMinBattery:
		return "max-min-battery"
	case Conditional:
		return "conditional"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// RadioCost holds the first-order radio model constants, in joules per bit.
type RadioCost struct {
	ElecJPerBit  float64 // electronics cost, paid at TX and RX
	AmpJPerBitM2 float64 // amplifier cost per square meter
}

// DefaultRadioCost returns the customary 50 nJ/bit electronics and
// 100 pJ/bit/m² amplifier constants.
func DefaultRadioCost() RadioCost {
	return RadioCost{ElecJPerBit: 50e-9, AmpJPerBitM2: 100e-12}
}

// TxEnergy returns the cost of transmitting bits over distance d.
func (r RadioCost) TxEnergy(bits int, d float64) float64 {
	return float64(bits) * (r.ElecJPerBit + r.AmpJPerBitM2*d*d)
}

// RxEnergy returns the cost of receiving bits.
func (r RadioCost) RxEnergy(bits int) float64 {
	return float64(bits) * r.ElecJPerBit
}

// Node is one network participant.
type Node struct {
	ID       int
	X, Y     float64
	Battery  float64 // joules remaining
	capacity float64
}

// Alive reports whether the node has energy left.
func (n *Node) Alive() bool { return n.Battery > 0 }

// Level returns the battery fraction remaining.
func (n *Node) Level() float64 {
	if n.capacity <= 0 {
		return 0
	}
	l := n.Battery / n.capacity
	if l < 0 {
		return 0
	}
	return l
}

// Network is an ad-hoc topology with per-node batteries. It is not safe for
// concurrent use: every search reuses scratch held on the Network.
type Network struct {
	nodes []*Node
	rang  float64 // radio range, meters
	cost  RadioCost
	// BatteryThreshold is the Conditional policy's protection level.
	BatteryThreshold float64

	deliveredPkts int
	failedPkts    int
	totalEnergyJ  float64
	firstDeathPkt int // packet count at first node death, -1 while none
	deaths        int

	// adj[i] lists the nodes within radio range of node i in id order,
	// dead or alive: positions never move, so it is built once, on the
	// first search. The other fields are search scratch reused by every
	// search: best is a node's distance (dijkstra) or width (widest).
	adj     [][]int
	best    []float64
	prev    []int
	visited []bool
	heap    pq
}

// NewGrid builds a w×h grid network with the given spacing, radio range and
// per-node battery capacity in joules.
func NewGrid(w, h int, spacing, radioRange, batteryJ float64, cost RadioCost) *Network {
	if w <= 0 || h <= 0 || spacing <= 0 || radioRange <= 0 || batteryJ <= 0 {
		panic("route: invalid grid parameters")
	}
	n := &Network{rang: radioRange, cost: cost, BatteryThreshold: 0.2, firstDeathPkt: -1}
	id := 0
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			n.nodes = append(n.nodes, &Node{
				ID: id, X: float64(x) * spacing, Y: float64(y) * spacing,
				Battery: batteryJ, capacity: batteryJ,
			})
			id++
		}
	}
	return n
}

// NewRandom builds a network of n nodes placed uniformly in a side×side
// square.
func NewRandom(rng *rand.Rand, n int, side, radioRange, batteryJ float64, cost RadioCost) *Network {
	if n <= 0 || side <= 0 || radioRange <= 0 || batteryJ <= 0 {
		panic("route: invalid random parameters")
	}
	net := &Network{rang: radioRange, cost: cost, BatteryThreshold: 0.2, firstDeathPkt: -1}
	for i := 0; i < n; i++ {
		net.nodes = append(net.nodes, &Node{
			ID: i, X: rng.Float64() * side, Y: rng.Float64() * side,
			Battery: batteryJ, capacity: batteryJ,
		})
	}
	return net
}

// Node returns node i.
func (n *Network) Node(i int) *Node { return n.nodes[i] }

// Size returns the node count.
func (n *Network) Size() int { return len(n.nodes) }

// NumAlive counts nodes with energy.
func (n *Network) NumAlive() int {
	alive := 0
	for _, nd := range n.nodes {
		if nd.Alive() {
			alive++
		}
	}
	return alive
}

// Stats returns delivery and energy counters: delivered and failed packet
// counts, total energy spent, packet count at first death (-1 if none).
func (n *Network) Stats() (delivered, failed int, energyJ float64, firstDeathPkt int) {
	return n.deliveredPkts, n.failedPkts, n.totalEnergyJ, n.firstDeathPkt
}

func (n *Network) dist(a, b *Node) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// link builds the adjacency lists and sizes the search scratch, once.
func (n *Network) link() {
	if len(n.adj) == len(n.nodes) {
		return
	}
	n.adj = make([][]int, len(n.nodes))
	for i, a := range n.nodes {
		for j, b := range n.nodes {
			if j != i && n.dist(a, b) <= n.rang {
				n.adj[i] = append(n.adj[i], j)
			}
		}
	}
	n.best = make([]float64, len(n.nodes))
	n.prev = make([]int, len(n.nodes))
	n.visited = make([]bool, len(n.nodes))
}

// linkEnergy returns the per-bit cost of the a→b link (TX at a + RX at b).
func (n *Network) linkEnergy(a, b *Node) float64 {
	d := n.dist(a, b)
	return n.cost.TxEnergy(1, d) + n.cost.RxEnergy(1)
}

// Route computes a path from src to dst under the policy, or nil when no
// path exists among alive nodes. The returned path is freshly allocated.
func (n *Network) Route(policy Policy, src, dst int) []int {
	s, d := n.nodes[src], n.nodes[dst]
	if !s.Alive() || !d.Alive() {
		return nil
	}
	n.link()
	var found bool
	switch policy {
	case MinHop, MinEnergy:
		found = n.dijkstra(src, dst, policy == MinEnergy)
	case MaxMinBattery:
		found = n.widest(src, dst)
	case Conditional:
		found = n.dijkstra(src, dst, true)
		for at := dst; found && at != -1; at = n.prev[at] {
			if n.nodes[at].Level() < n.BatteryThreshold {
				found = n.widest(src, dst)
				break
			}
			if at == src {
				break
			}
		}
	default:
		panic(fmt.Sprintf("route: unknown policy %d", int(policy)))
	}
	if !found {
		return nil
	}
	return n.unwind(src, dst)
}

// Send routes one packet of the given bit count and drains energy along the
// path. It reports whether delivery succeeded.
func (n *Network) Send(policy Policy, src, dst, bits int) bool {
	path := n.Route(policy, src, dst)
	if path == nil {
		n.failedPkts++
		return false
	}
	for i := 0; i+1 < len(path); i++ {
		a, b := n.nodes[path[i]], n.nodes[path[i+1]]
		d := n.dist(a, b)
		tx := n.cost.TxEnergy(bits, d)
		rx := n.cost.RxEnergy(bits)
		n.drain(a, tx)
		n.drain(b, rx)
		n.totalEnergyJ += tx + rx
	}
	n.deliveredPkts++
	return true
}

func (n *Network) drain(nd *Node, j float64) {
	if !nd.Alive() {
		return
	}
	nd.Battery -= j
	if nd.Battery <= 0 {
		nd.Battery = 0
		n.deaths++
		if n.firstDeathPkt == -1 {
			n.firstDeathPkt = n.deliveredPkts
		}
	}
}

// --- shortest path machinery ---

type pqItem struct {
	id   int
	prio float64
}

// pq is a binary min-heap of values. push and pop sift exactly as
// container/heap's Push and Pop do, so equal priorities pop in the same
// order a container/heap queue would give them.
type pq []pqItem

func (q *pq) push(id int, prio float64) {
	h := append(*q, pqItem{id, prio})
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2
		if !(h[j].prio < h[i].prio) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	*q = h
}

func (q *pq) pop() int {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].prio < h[j].prio {
			j = j2
		}
		if !(h[j].prio < h[i].prio) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	*q = h[:n]
	return h[n].id
}

// reset readies the scratch for a search: every best at init, no
// predecessors, nothing visited, an empty queue.
func (n *Network) reset(init float64) []float64 {
	for i := range n.best {
		n.best[i] = init
		n.prev[i] = -1
		n.visited[i] = false
	}
	n.heap = n.heap[:0]
	return n.best
}

// dijkstra finds the min-cost path from src to dst, costing each link one
// hop or, with energy set, its per-bit TX+RX energy. It leaves the path in
// prev and reports whether dst is reachable among alive nodes.
func (n *Network) dijkstra(src, dst int, energy bool) bool {
	const inf = math.MaxFloat64
	dist := n.reset(inf)
	dist[src] = 0
	n.heap.push(src, 0)
	for len(n.heap) > 0 {
		u := n.heap.pop()
		if n.visited[u] {
			continue
		}
		n.visited[u] = true
		if u == dst {
			break
		}
		for _, v := range n.adj[u] {
			b := n.nodes[v]
			if !b.Alive() {
				continue
			}
			w := 1.0
			if energy {
				w = n.linkEnergy(n.nodes[u], b)
			}
			if nd := dist[u] + w; nd < dist[v] {
				dist[v] = nd
				n.prev[v] = u
				n.heap.push(v, nd)
			}
		}
	}
	return dist[dst] != inf
}

// widest finds the path maximizing the minimum battery level of
// intermediate and endpoint nodes (bottleneck shortest path), leaving it in
// prev. The min-heap orders widths by their negation, which for non-NaN
// floats is exactly the max-heap order.
func (n *Network) widest(src, dst int) bool {
	width := n.reset(-1)
	width[src] = n.nodes[src].Level()
	n.heap.push(src, -width[src])
	for len(n.heap) > 0 {
		u := n.heap.pop()
		if n.visited[u] {
			continue
		}
		n.visited[u] = true
		if u == dst {
			break
		}
		for _, v := range n.adj[u] {
			b := n.nodes[v]
			if !b.Alive() {
				continue
			}
			if w := math.Min(width[u], b.Level()); w > width[v] {
				width[v] = w
				n.prev[v] = u
				n.heap.push(v, -w)
			}
		}
	}
	return width[dst] >= 0
}

// unwind returns a fresh src→dst path from the last search's prev links,
// or nil when they do not lead back to src.
func (n *Network) unwind(src, dst int) []int {
	hops, at := 0, dst
	for at != src && n.prev[at] != -1 {
		at = n.prev[at]
		hops++
	}
	if at != src {
		return nil
	}
	out := make([]int, hops+1)
	for at, i := dst, hops; i >= 0; at, i = n.prev[at], i-1 {
		out[i] = at
	}
	return out
}
