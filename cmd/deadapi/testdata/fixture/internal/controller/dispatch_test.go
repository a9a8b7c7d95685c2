package controller

import (
	"testing"

	"fixture/internal/core"
)

// A test may write with a goroutine; it may not name a round schedule.
func TestRoundSchedule(t *testing.T) {
	var s *core.Schedule
	go func() { _, _ = core.ScheduleByName(nil, "", 0) }()
	_ = s
}
