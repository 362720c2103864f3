package malnet

import (
	"fmt"
	"strings"

	"malnet/internal/results"
)

// The rendering surface: everything the paper's evaluation prints,
// reachable from the public API (the internal/results constructors
// are not importable outside this module).

// RenderTable prints table n (1–7) of the paper from a study.
func RenderTable(st *Study, n int) (string, error) {
	switch n {
	case 1:
		return results.NewTable1(st).Render(), nil
	case 2:
		return results.NewTable2(st).Render(), nil
	case 3:
		return results.NewTable3(st).Render(), nil
	case 4:
		return results.NewTable4(st).Render(), nil
	case 5:
		return results.NewTable5().Render(), nil
	case 6:
		return results.NewTable6().Render(), nil
	case 7:
		return results.NewTable7(st).Render(), nil
	}
	return "", fmt.Errorf("malnet: no table %d", n)
}

// RenderFigure prints figure n (1–13) of the paper from a study.
func RenderFigure(st *Study, n int) (string, error) {
	switch n {
	case 1:
		return results.NewFigure1(st).Render(), nil
	case 2:
		return results.NewFigure2(st).Render(), nil
	case 3:
		return results.NewFigure3(st).Render(), nil
	case 4:
		return results.NewFigure4(st).Render(), nil
	case 5:
		return results.NewFigure5(st).Render(), nil
	case 6:
		return results.NewFigure6(st).Render(), nil
	case 7:
		return results.NewFigure7(st).Render(), nil
	case 8:
		return results.NewFigure8(st).Render(), nil
	case 9:
		return results.NewFigure9(st).Render(), nil
	case 10:
		return results.NewFigure10(st).Render(), nil
	case 11:
		return results.NewFigure11(st).Render(), nil
	case 12:
		return results.NewFigure12(st).Render(), nil
	case 13:
		return results.NewFigure13(st).Render(), nil
	}
	return "", fmt.Errorf("malnet: no figure %d", n)
}

// RenderHeadlines prints the scalar findings with paper values
// alongside, then the detection-quality panel.
func RenderHeadlines(st *Study) string {
	return results.NewHeadlines(st).Render() + "\n" + results.NewDetectionQuality(st).Render()
}

// RenderAll prints every table, every figure, the headlines and the
// detection-quality panel — the full evaluation.
func RenderAll(st *Study) string {
	var sb strings.Builder
	for i := 1; i <= 7; i++ {
		s, _ := RenderTable(st, i)
		sb.WriteString(s)
		sb.WriteByte('\n')
	}
	for i := 1; i <= 13; i++ {
		s, _ := RenderFigure(st, i)
		sb.WriteString(s)
		sb.WriteByte('\n')
	}
	sb.WriteString(RenderHeadlines(st))
	return sb.String()
}
