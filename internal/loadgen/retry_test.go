package loadgen

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestSubmitRetriesOn429 pins the generator's backpressure contract: a
// 429 is not an error but a pacing signal — wait out Retry-After,
// resubmit, and account the sheds and the time spent waiting them out.
func TestSubmitRetriesOn429(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error": "admission window full"}`))
			return
		}
		w.WriteHeader(http.StatusCreated)
		w.Write([]byte(`{"id": 1}`))
	}))
	defer ts.Close()

	c := &client{base: ts.URL, http: ts.Client()}
	id, shed, waited, err := c.submit(map[string]any{"gpus": 1}, time.Now().Add(10*time.Second))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if id != 1 {
		t.Errorf("id %d, want the accepted job's 1", id)
	}
	if shed != 2 {
		t.Errorf("shed %d, want 2", shed)
	}
	if waited != 2*time.Second {
		t.Errorf("waited %v, want 2s of honoured Retry-After", waited)
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("%d requests, want 3 (two sheds, one accept)", n)
	}
}

// TestSubmitGivesUpAtDeadline: a server that sheds forever must not
// trap the generator — once the next Retry-After would overshoot the
// deadline, submit reports the shed count and fails.
func TestSubmitGivesUpAtDeadline(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error": "admission window full"}`))
	}))
	defer ts.Close()

	c := &client{base: ts.URL, http: ts.Client()}
	_, shed, _, err := c.submit(map[string]any{"gpus": 1}, time.Now().Add(500*time.Millisecond))
	if err == nil || !strings.Contains(err.Error(), "still shed") {
		t.Fatalf("err %v, want a still-shed-after-deadline error", err)
	}
	if shed != 1 {
		t.Errorf("shed %d, want 1", shed)
	}
}

// TestSubmitFailsFastOnOtherStatuses: only 429 retries; a 4xx/5xx that
// is not backpressure surfaces immediately.
func TestSubmitFailsFastOnOtherStatuses(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error": "gpus must be positive"}`))
	}))
	defer ts.Close()

	c := &client{base: ts.URL, http: ts.Client()}
	_, shed, _, err := c.submit(map[string]any{"gpus": -1}, time.Now().Add(5*time.Second))
	if err == nil || !strings.Contains(err.Error(), "gpus must be positive") {
		t.Fatalf("err %v, want the server's 400 message", err)
	}
	if shed != 0 || calls.Load() != 1 {
		t.Errorf("shed %d after %d calls, want 0 after 1", shed, calls.Load())
	}
}
