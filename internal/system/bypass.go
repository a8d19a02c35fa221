package system

// LLC write bypassing, the second category of NVM-LLC techniques the paper
// surveys ("Novel architectural techniques, e.g., cache bypassing" [14],
// [16], [17], [21]): blocks predicted dead-on-arrival skip the NVM data
// array entirely, trading potential future hits for avoided expensive NVM
// writes. The predictor is a dead-block table in the style of the
// write-minimization literature: it remembers, per (hashed) line address,
// whether the line saw any reuse during its last LLC residency; lines that
// died without reuse are bypassed on their next fill or writeback.

import "nvmllc/internal/linetab"

// BypassPolicy selects the LLC write-bypass behavior.
type BypassPolicy int

const (
	// BypassNone disables bypassing (the paper's configuration).
	BypassNone BypassPolicy = iota
	// BypassDeadBlock bypasses fills and L2 writebacks of lines whose
	// previous LLC residency ended without a single hit.
	BypassDeadBlock
)

// String names the policy.
func (b BypassPolicy) String() string {
	switch b {
	case BypassNone:
		return "none"
	case BypassDeadBlock:
		return "dead-block"
	default:
		return "BypassPolicy(?)"
	}
}

const (
	// bypassTableBits sizes the dead-block table (2^bits entries).
	bypassTableBits = 16
	bypassTableMask = 1<<bypassTableBits - 1
)

// deadBlockPredictor tracks per-line reuse across LLC residencies.
type deadBlockPredictor struct {
	// deadLast is set when the line's last residency saw no hit.
	deadLast []bool
	// seen marks table entries with at least one completed residency.
	seen []bool
	// hitThisResidency holds 1 for each resident line that has hit
	// (absent: no hit yet this residency).
	hitThisResidency linetab.Table
}

func newDeadBlockPredictor() *deadBlockPredictor {
	return &deadBlockPredictor{
		deadLast: make([]bool, 1<<bypassTableBits),
		seen:     make([]bool, 1<<bypassTableBits),
	}
}

// slot hashes a line address into the table.
func (d *deadBlockPredictor) slot(line uint64) uint64 {
	h := line * 0x9E3779B97F4A7C15
	return (h >> 24) & bypassTableMask
}

// predictDead reports whether the line should be bypassed: it has a
// completed residency on record and that residency ended dead.
func (d *deadBlockPredictor) predictDead(line uint64) bool {
	s := d.slot(line)
	return d.seen[s] && d.deadLast[s]
}

// onHit records reuse for a resident line.
func (d *deadBlockPredictor) onHit(line uint64) {
	d.hitThisResidency.Swap(line, 1)
}

// onFill starts a residency.
func (d *deadBlockPredictor) onFill(line uint64) {
	d.hitThisResidency.Delete(line)
}

// onEvict closes a residency and trains the table.
func (d *deadBlockPredictor) onEvict(line uint64) {
	s := d.slot(line)
	d.seen[s] = true
	d.deadLast[s] = d.hitThisResidency.Delete(line) == 0
}
