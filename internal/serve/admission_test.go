package serve

import (
	"context"
	"testing"
	"time"

	"metainsight/internal/obs"
)

func (a *admission) waitQueued(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		a.mu.Lock()
		q := a.queued
		a.mu.Unlock()
		if q == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue depth never reached %d (at %d)", n, q)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAdmissionImmediateGrantAndRelease(t *testing.T) {
	a := newAdmission(AdmissionConfig{MaxConcurrent: 2}, nil)
	p1, err := a.Acquire(context.Background(), "t1")
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	p2, err := a.Acquire(context.Background(), "t2")
	if err != nil {
		t.Fatalf("second acquire: %v", err)
	}
	if in, q := a.snapshot(); in != 2 || q != 0 {
		t.Fatalf("snapshot = (%d, %d), want (2, 0)", in, q)
	}
	p1.Release()
	p2.Release()
	if in, _ := a.snapshot(); in != 0 {
		t.Fatalf("inflight after release = %d, want 0", in)
	}
}

func TestAdmissionQueueFullSheds(t *testing.T) {
	a := newAdmission(AdmissionConfig{MaxConcurrent: 1, MaxQueue: 1}, nil)
	p, err := a.Acquire(context.Background(), "t1")
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	defer p.Release()

	done := make(chan *APIError, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		perm, aerr := a.Acquire(ctx, "t1")
		if perm != nil {
			perm.Release()
		}
		done <- aerr
	}()
	a.waitQueued(t, 1)

	_, aerr := a.Acquire(context.Background(), "t2")
	if aerr == nil {
		t.Fatal("third acquire succeeded, want queue_full shed")
	}
	if aerr.Code != CodeQueueFull {
		t.Fatalf("shed code = %q, want %q", aerr.Code, CodeQueueFull)
	}
	if aerr.HTTPStatus() != 503 {
		t.Fatalf("shed status = %d, want 503", aerr.HTTPStatus())
	}
	cancel()
	<-done
}

func TestAdmissionDeadlineUnattainableShedsImmediately(t *testing.T) {
	// Seed a one-hour service-time estimate: a 50ms-deadline request must be
	// rejected up front, not queued to die.
	ob := obs.New(obs.Options{})
	a := newAdmission(AdmissionConfig{MaxConcurrent: 1, ExpectedServiceTime: time.Hour}, ob)
	p, err := a.Acquire(context.Background(), "t1")
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	defer p.Release()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, aerr := a.Acquire(ctx, "t2")
	if aerr == nil {
		t.Fatal("acquire with hopeless deadline succeeded")
	}
	if aerr.Code != CodeDeadlineUnattainable {
		t.Fatalf("shed code = %q, want %q", aerr.Code, CodeDeadlineUnattainable)
	}
	if aerr.RetryAfter <= 0 {
		t.Fatal("deadline_unattainable shed carries no retry hint")
	}
	// "Immediately" is the contract: the request is shed before it is ever
	// enqueued, so it is counted as unattainable, never as expired in the
	// queue, and no waiter is left behind.
	snap := ob.Snapshot()
	if n := snap.Counters["serve.shed.deadline_unattainable"]; n != 1 {
		t.Fatalf("serve.shed.deadline_unattainable = %d, want 1", n)
	}
	if n := snap.Counters["serve.shed.deadline_expired"]; n != 0 {
		t.Fatalf("serve.shed.deadline_expired = %d, want 0", n)
	}
	if d, ok := snap.Gauges["serve.queue.depth"]; !ok || d != 0 {
		t.Fatalf("serve.queue.depth = %v (recorded %v), want 0", d, ok)
	}
	if _, q := a.snapshot(); q != 0 {
		t.Fatalf("shed request left %d waiters queued", q)
	}
}

func TestAdmissionDeadlineExpiredWhileQueued(t *testing.T) {
	a := newAdmission(AdmissionConfig{MaxConcurrent: 1}, nil)
	p, err := a.Acquire(context.Background(), "t1")
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	defer p.Release()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, aerr := a.Acquire(ctx, "t2")
	if aerr == nil {
		t.Fatal("acquire succeeded past an expired deadline")
	}
	if aerr.Code != CodeDeadlineExpired {
		t.Fatalf("shed code = %q, want %q", aerr.Code, CodeDeadlineExpired)
	}
	if _, q := a.snapshot(); q != 0 {
		t.Fatalf("expired waiter left %d queued", q)
	}
}

// TestAdmissionRoundRobinFairness floods the queue with one tenant and
// verifies a competing tenant's single request is served after at most one of
// the flooder's, not after the whole flood.
func TestAdmissionRoundRobinFairness(t *testing.T) {
	a := newAdmission(AdmissionConfig{MaxConcurrent: 1}, nil)
	holder, err := a.Acquire(context.Background(), "warm")
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}

	order := make(chan string, 8)
	enqueue := func(tenant, label string, depth int) {
		go func() {
			p, aerr := a.Acquire(context.Background(), tenant)
			if aerr != nil {
				t.Errorf("%s: %v", label, aerr)
				order <- "error"
				return
			}
			order <- label
			p.Release()
		}()
		a.waitQueued(t, depth)
	}
	// Arrival order: flood A1..A3, then B's single request.
	enqueue("A", "A1", 1)
	enqueue("A", "A2", 2)
	enqueue("A", "A3", 3)
	enqueue("B", "B1", 4)

	holder.Release()
	var got []string
	for i := 0; i < 4; i++ {
		got = append(got, <-order)
	}
	want := []string{"A1", "B1", "A2", "A3"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grant order = %v, want %v (round-robin across tenants)", got, want)
		}
	}
}

func TestAdmissionCloseWakesWaiters(t *testing.T) {
	a := newAdmission(AdmissionConfig{MaxConcurrent: 1}, nil)
	p, err := a.Acquire(context.Background(), "t1")
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	done := make(chan *APIError, 1)
	go func() {
		_, aerr := a.Acquire(context.Background(), "t2")
		done <- aerr
	}()
	a.waitQueued(t, 1)
	a.Close()
	aerr := <-done
	if aerr == nil || aerr.Code != CodeShuttingDown {
		t.Fatalf("queued waiter got %v, want shutting_down", aerr)
	}
	if _, aerr := a.Acquire(context.Background(), "t3"); aerr == nil || aerr.Code != CodeShuttingDown {
		t.Fatalf("post-close acquire got %v, want shutting_down", aerr)
	}
	p.Release() // in-flight permit stays valid through close
}
