// Package world generates the simulated Internet and malware feed
// the pipeline measures: the study calendar (Appendix E), the 1447
// sample binaries and their families, the C2 server population with
// its spatial (Table 2 / Figure 1) and temporal (Figures 2–4)
// structure, the exploit kits (Table 4), the DDoS attack schedule
// (§5), the DNS zone, and the threat-intelligence registrations.
//
// Every distribution is a generative model calibrated to the paper's
// published numbers; the pipeline then re-measures them through the
// same instruments the authors used. EXPERIMENTS.md records
// paper-vs-measured for each.
package world

import (
	"time"
)

// StudyWeek maps one of the 31 study weeks (Figure 1's x-axis) to a
// calendar week.
type StudyWeek struct {
	// Num is the 1-based study week number.
	Num int
	// Start is the Monday the week begins.
	Start time.Time
}

// isoWeekStart returns the Monday of ISO week (year, week).
func isoWeekStart(year, week int) time.Time {
	// Jan 4 is always in ISO week 1.
	jan4 := time.Date(year, 1, 4, 0, 0, 0, 0, time.UTC)
	weekday := int(jan4.Weekday())
	if weekday == 0 {
		weekday = 7
	}
	week1Monday := jan4.AddDate(0, 0, 1-weekday)
	return week1Monday.AddDate(0, 0, (week-1)*7)
}

// calendar is the 31 study weeks per Appendix E: study week 1 is 2021
// ISO week 14; weeks 2–11 map to 2021 weeks 24–33; weeks 12–20 map to
// 2021 weeks 44–52; weeks 21–31 map to 2022 weeks 2–12. The gaps are
// the paper's service disruptions / empty weeks. Built once: the
// study asks StudyEnd every day and WeekOf every sample.
var calendar = func() []StudyWeek {
	var out []StudyWeek
	add := func(year, isoWeek int) {
		out = append(out, StudyWeek{Num: len(out) + 1, Start: isoWeekStart(year, isoWeek)})
	}
	add(2021, 14)
	for w := 24; w <= 33; w++ {
		add(2021, w)
	}
	for w := 44; w <= 52; w++ {
		add(2021, w)
	}
	for w := 2; w <= 12; w++ {
		add(2022, w)
	}
	return out
}()

// Calendar returns a copy of the 31 study weeks, so no caller can
// change the shared ones.
func Calendar() []StudyWeek { return append([]StudyWeek(nil), calendar...) }

// StudyStart is the first day samples can appear.
func StudyStart() time.Time { return calendar[0].Start }

// StudyEnd is the day after the last study week.
func StudyEnd() time.Time {
	return calendar[len(calendar)-1].Start.AddDate(0, 0, 7)
}

// May7 is the second threat-intelligence query date (§2.3a).
var May7 = time.Date(2022, 5, 7, 0, 0, 0, 0, time.UTC)

// WeekOf maps a date to its study week number, or 0 when the date
// falls in a calendar gap.
func WeekOf(t time.Time) int {
	for _, w := range calendar {
		if !t.Before(w.Start) && t.Before(w.Start.AddDate(0, 0, 7)) {
			return w.Num
		}
	}
	return 0
}

// weekWeight shapes the per-week sample volume: modest through 2021,
// rising from January 2022 (weeks 21+), peaking at week 28 — the
// shape Figure 1 shows.
func weekWeight(num int) float64 {
	switch {
	case num == 28:
		return 3.4 // the paper's observed peak
	case num >= 27 && num <= 29:
		return 2.6
	case num >= 21:
		return 2.0
	case num == 1:
		return 0.7
	default:
		return 1.0
	}
}
