package core

import "testing"

func TestSchedule(t *testing.T) {
	var s Schedule
	_ = s
}
