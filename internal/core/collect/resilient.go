package collect

import (
	"errors"
	"fmt"
	"strconv"
	"time"
)

// ErrBreakerOpen reports a collection skipped because the target's circuit
// breaker is open: the target failed too many consecutive cycles and is in
// its cooldown before the next half-open probe.
var ErrBreakerOpen = errors.New("collect: circuit breaker open")

// Status classifies one target's collection outcome within a cycle.
type Status string

// The per-target cycle outcomes.
const (
	// StatusOK: collection succeeded on the first attempt.
	StatusOK Status = "ok"
	// StatusRetried: collection succeeded after at least one retry.
	StatusRetried Status = "retried"
	// StatusDegraded: every attempt this cycle failed; the target is
	// skipped and its series get a gap marker.
	StatusDegraded Status = "degraded"
	// StatusBreakerOpen: no attempt was made; the breaker is cooling down.
	StatusBreakerOpen Status = "breaker-open"
)

// BreakerState is a circuit breaker's position.
type BreakerState int

// Breaker states: closed (normal), open (skipping), half-open (probing).
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String renders the state for health views and logs.
func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "closed"
}

// MarshalJSON encodes the state as its string form.
func (s BreakerState) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON decodes the string form written by MarshalJSON.
func (s *BreakerState) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"closed"`:
		*s = BreakerClosed
	case `"open"`:
		*s = BreakerOpen
	case `"half-open"`:
		*s = BreakerHalfOpen
	default:
		return fmt.Errorf("collect: unknown breaker state %s", b)
	}
	return nil
}

// Breaker is a per-target circuit breaker. It opens after a configured
// number of consecutive failed cycles, stays open for a cooldown, then
// admits a single half-open probe: success closes it, failure re-opens
// it for another cooldown. Time comes from the cycle timestamps the
// caller supplies, so breakers work identically under virtual sim time
// and wall clocks. Breaker is not safe for concurrent use: only the
// goroutine collecting its target touches it.
type Breaker struct {
	threshold   int
	cooldown    time.Duration
	state       BreakerState
	consecutive int
	openedAt    time.Time
}

// NewBreaker returns a closed breaker opening after threshold consecutive
// failures and probing after cooldown.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	return &Breaker{threshold: threshold, cooldown: cooldown}
}

// Allow reports whether a collection attempt may proceed at time now,
// transitioning an open breaker to half-open once its cooldown elapsed.
func (b *Breaker) Allow(now time.Time) bool {
	if b.state == BreakerOpen {
		if now.Sub(b.openedAt) >= b.cooldown {
			b.state = BreakerHalfOpen
			return true
		}
		return false
	}
	return true
}

// Success records a successful cycle, closing the breaker.
func (b *Breaker) Success() {
	b.state = BreakerClosed
	b.consecutive = 0
}

// Failure records a failed cycle at time now, opening the breaker when the
// threshold is reached or a half-open probe fails.
func (b *Breaker) Failure(now time.Time) {
	b.consecutive++
	if b.state == BreakerHalfOpen || b.consecutive >= b.threshold {
		b.state = BreakerOpen
		b.openedAt = now
	}
}

// State returns the breaker's current position.
func (b *Breaker) State() BreakerState { return b.state }

// Consecutive returns the current run of failed cycles.
func (b *Breaker) Consecutive() int { return b.consecutive }

// Policy configures the resilient collection path: per-cycle retries with
// exponential backoff and deterministic jitter, and circuit breaking. The
// zero value means "all defaults" — see DefaultPolicy.
type Policy struct {
	// MaxAttempts is the number of collection attempts per target per
	// cycle; 0 means 3.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; 0 means 100 ms.
	// Each further retry doubles it, capped at MaxDelay (0 means 2 s).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// JitterSeed perturbs the deterministic backoff jitter so distinct
	// deployments desynchronize; any fixed value keeps runs reproducible.
	JitterSeed int64
	// BreakerThreshold is the consecutive failed cycles before a target's
	// breaker opens; 0 means 5.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before admitting
	// a half-open probe; 0 means 5 minutes.
	BreakerCooldown time.Duration
	// Sleep is the backoff clock, overridable in tests; nil means
	// time.Sleep.
	Sleep func(time.Duration)
}

// DefaultPolicy returns the production defaults: 3 attempts, 100 ms base
// backoff capped at 2 s, breaker opening after 5 failed cycles with a
// 5-minute cooldown.
func DefaultPolicy() Policy { return Policy{}.withDefaults() }

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 100 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.BreakerThreshold <= 0 {
		p.BreakerThreshold = 5
	}
	if p.BreakerCooldown <= 0 {
		p.BreakerCooldown = 5 * time.Minute
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	return p
}

// Backoff returns the delay before retry attempt (attempt ≥ 1) against the
// named target: exponential from BaseDelay capped at MaxDelay, scaled into
// [0.5, 1.0) by a jitter derived deterministically from the target name,
// attempt number and JitterSeed — retries desynchronize across targets
// without a shared random source, and identical runs stay identical.
func (p Policy) Backoff(target string, attempt int) time.Duration {
	p = p.withDefaults()
	if attempt < 1 {
		attempt = 1
	}
	d := p.BaseDelay
	for i := 1; i < attempt && d < p.MaxDelay; i++ {
		d *= 2
	}
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	// FNV-1a over "target/attempt/seed", composed in a stack buffer: the
	// byte stream matches what fmt.Fprintf("%s/%d/%d") used to feed the
	// hasher, so jitter values are unchanged, but the per-retry fmt and
	// hasher allocations are gone (Backoff sits on the collect hot path).
	var buf [64]byte
	b := append(buf[:0], target...)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(attempt), 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(p.JitterSeed), 10)
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	frac := 0.5 + 0.5*float64(h%1024)/1024
	return time.Duration(float64(d) * frac)
}

// TargetHealth is the operator-facing view of one target's collection
// health, exposed through Monitor.Health and the HTTP /health endpoint.
type TargetHealth struct {
	Target              string       `json:"target"`
	Breaker             BreakerState `json:"breaker"`
	ConsecutiveFailures int          `json:"consecutive_failures"`
	TotalCycles         int          `json:"total_cycles"`
	TotalFailures       int          `json:"total_failures"`
	LastStatus          Status       `json:"last_status,omitempty"`
	LastSuccess         time.Time    `json:"last_success"`
	LastError           string       `json:"last_error,omitempty"`
}

// Result is the per-target outcome of one resilient collection.
type Result struct {
	Target   string
	Status   Status
	Attempts int
	// Err is the last attempt's error when the cycle failed.
	Err error
	// Breaker is the target's breaker state after this cycle.
	Breaker BreakerState
}

// Collector wraps the collection session with the resilience the
// paper's Mantra needed to run unattended for months against flaky
// routers: per-cycle retries with backoff, a per-target circuit breaker,
// and a health ledger.
//
// A Collector belongs to the goroutine that owns its cycle core, and its
// per-target map changes only there, between cycles: Track, ResetTarget,
// RestoreHealth, RecordSuccess, RecordSkipped and CarryState. Inside a
// cycle, Collect and RecordFailure run on the pool workers, each for its
// own target: they look the target's entry up, which Track made before
// the cycle, and never insert one.
type Collector struct {
	policy Policy

	targets map[string]*targetState
}

type targetState struct {
	breaker *Breaker
	health  TargetHealth
}

// NewCollector returns a collector applying policy (zero fields take the
// defaults of DefaultPolicy).
func NewCollector(policy Policy) *Collector {
	return &Collector{
		policy:  policy.withDefaults(),
		targets: make(map[string]*targetState),
	}
}

// Policy returns the collector's normalized policy.
func (c *Collector) Policy() Policy { return c.policy }

// Track makes sure a target has its entry, fresh if it had none. The
// core tracks every target of a cycle before the cycle starts.
func (c *Collector) Track(name string) { c.state(name) }

// state returns a target's entry, inserting a fresh one if it has none.
// Owning goroutine only, between cycles.
func (c *Collector) state(name string) *targetState {
	st := c.targets[name]
	if st == nil {
		st = &targetState{
			breaker: NewBreaker(c.policy.BreakerThreshold, c.policy.BreakerCooldown),
			health:  TargetHealth{Target: name},
		}
		c.targets[name] = st
	}
	return st
}

// entry returns a tracked target's entry. It never inserts: a pool
// worker calls it for its own target while others read the map.
func (c *Collector) entry(name string) *targetState {
	st := c.targets[name]
	if st == nil {
		panic("collect: " + name + " has no entry: Track it before the cycle")
	}
	return st
}

// A Sink takes a target's dumps as Collect captures them. An attempt
// opens with Begin and hands Dump each command's output as its prompt
// arrives — echo and prompt stripped, a view into the read buffer valid
// until Dump returns. If its session delivered every dump, End judges
// it: an error, a defect a retry may fix, fails the attempt.
type Sink interface {
	Begin()
	Dump(command string, raw []byte)
	End() error
}

// Collect performs one resilient collection of the target: breaker check,
// up to MaxAttempts tries with backoff between them, each capture
// streamed to sink through buf. Every command of an attempt is sent even
// when a dump turns out defective, so the router sees the whole session.
// It never blocks past the per-step timeouts; a target that cannot be
// collected comes back as StatusDegraded (or StatusBreakerOpen when
// skipped) with the last error attached. The target must be tracked
// (Track).
func (c *Collector) Collect(t Target, commands []string, now time.Time, buf *ReadBuffer, sink Sink) Result {
	st := c.entry(t.Name)
	if !st.breaker.Allow(now) {
		st.health.TotalCycles++
		st.health.LastStatus = StatusBreakerOpen
		return Result{
			Target:  t.Name,
			Status:  StatusBreakerOpen,
			Err:     fmt.Errorf("%w: %s skipped", ErrBreakerOpen, t.Name),
			Breaker: st.breaker.State(),
		}
	}

	var lastErr error
	attempts := 0
	for attempt := 0; attempt < c.policy.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.policy.Sleep(c.policy.Backoff(t.Name, attempt))
		}
		attempts++
		sink.Begin()
		err := stream(t, commands, buf, sink.Dump)
		if err == nil {
			err = sink.End()
		}
		if err == nil {
			status := StatusOK
			if attempt > 0 {
				status = StatusRetried
			}
			br := st.record(now, status, "")
			return Result{Target: t.Name, Status: status, Attempts: attempts, Breaker: br}
		}
		lastErr = err
	}
	br := st.record(now, StatusDegraded, lastErr.Error())
	return Result{
		Target:   t.Name,
		Status:   StatusDegraded,
		Attempts: attempts,
		Err:      fmt.Errorf("collect %s: degraded after %d attempts: %w", t.Name, attempts, lastErr),
		Breaker:  br,
	}
}

// RecordFailure feeds an out-of-band per-target failure — e.g. a snapshot
// parse error downstream of collection — into the breaker and health
// ledger, so corrupted cycles count toward opening the breaker even when
// the CLI session itself succeeded. The target must be tracked (Track).
func (c *Collector) RecordFailure(name string, now time.Time, err error) {
	detail := ""
	if err != nil {
		detail = err.Error()
	}
	c.entry(name).record(now, StatusDegraded, detail)
}

// RecordSuccess feeds an out-of-band per-target success into the breaker
// and health ledger — used by archive recovery when replaying WAL-tail
// cycles that succeeded before the crash.
func (c *Collector) RecordSuccess(name string, now time.Time) {
	c.state(name).record(now, StatusOK, "")
}

// RecordSkipped notes a cycle skipped by an open breaker without counting
// a new failure — the replay counterpart of the breaker-open fast path in
// Collect, used by archive recovery.
func (c *Collector) RecordSkipped(name string, now time.Time) {
	st := c.state(name)
	st.health.TotalCycles++
	st.health.LastStatus = StatusBreakerOpen
	st.health.Breaker = st.breaker.State()
	st.health.ConsecutiveFailures = st.breaker.Consecutive()
}

// CarryState imports every target's health ledger and breaker position
// from old, so a policy swap mid-run keeps the accumulated failure
// history instead of silently amnesia-ing it. The new policy's
// thresholds and cooldowns apply from the next breaker transition;
// current streaks, totals and an open breaker's opening instant carry
// over unchanged (an open breaker keeps cooling down on its original
// schedule rather than restarting). Both collectors belong to the
// caller.
func (c *Collector) CarryState(old *Collector) {
	if old == nil || old == c {
		return
	}
	for name, ost := range old.targets {
		st := c.state(name)
		st.health = ost.health
		st.breaker.state = ost.breaker.state
		st.breaker.consecutive = ost.breaker.consecutive
		st.breaker.openedAt = ost.breaker.openedAt
	}
}

// ResetTarget drops any accumulated health ledger and breaker state
// for name. A target that is removed and later re-registered must start
// with a fresh breaker window — without the reset, state carried across
// policy swaps (CarryState) would hand the re-registered target a stale
// open breaker or failure streak from its previous life.
func (c *Collector) ResetTarget(name string) {
	delete(c.targets, name)
}

// RestoreHealth seeds one target's health ledger and breaker from a
// checkpointed TargetHealth — the restart-recovery path. The breaker's
// failure streak and state are reconstructed; a breaker restored open
// restarts its cooldown at now (the original open instant is not
// persisted), so a recovered deployment waits one full cooldown before
// probing a previously-failing target. That errs toward caution: the
// target was failing when the monitor died.
func (c *Collector) RestoreHealth(h TargetHealth, now time.Time) {
	if h.Target == "" {
		return
	}
	st := c.state(h.Target)
	st.health = h
	st.breaker.consecutive = h.ConsecutiveFailures
	st.breaker.state = h.Breaker
	if h.Breaker == BreakerOpen {
		st.breaker.openedAt = now
	}
}

// record updates breaker and health for one finished cycle and returns the
// breaker state after the transition.
func (st *targetState) record(now time.Time, status Status, lastErr string) BreakerState {
	st.health.TotalCycles++
	st.health.LastStatus = status
	switch status {
	case StatusOK, StatusRetried:
		st.breaker.Success()
		st.health.LastSuccess = now
		st.health.LastError = ""
	default:
		st.breaker.Failure(now)
		st.health.TotalFailures++
		st.health.LastError = lastErr
	}
	st.health.Breaker = st.breaker.State()
	st.health.ConsecutiveFailures = st.breaker.Consecutive()
	return st.breaker.State()
}

// TargetHealth returns one target's health and whether it has been
// collected (or skipped) at least once.
func (c *Collector) TargetHealth(name string) (TargetHealth, bool) {
	st, ok := c.targets[name]
	if !ok {
		return TargetHealth{Target: name}, false
	}
	return st.health, true
}
