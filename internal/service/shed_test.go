package service

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestWriteServiceErrorShed pins the shed-load HTTP contract: a governor shed
// (even wrapped) maps to 503 Service Unavailable with a Retry-After hint, the
// signal load balancers and retrying clients key off.
func TestWriteServiceErrorShed(t *testing.T) {
	rec := httptest.NewRecorder()
	writeServiceError(rec, fmt.Errorf("join orders⋈customer: %w", ErrShed))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("shed status = %d, want 503", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", got)
	}
}
