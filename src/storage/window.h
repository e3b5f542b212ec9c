#ifndef GRETA_STORAGE_WINDOW_H_
#define GRETA_STORAGE_WINDOW_H_

#include <climits>
#include <numeric>

#include "common/check.h"
#include "common/types.h"
#include "query/query.h"

namespace greta {

/// Sliding-window arithmetic (Section 6). Window `w` covers application time
/// `[w * slide, w * slide + within)`; an event at time t falls into the
/// contiguous window range [FirstWindowOf(t), LastWindowOf(t)]. Windows with
/// negative ids (before stream start) are clamped away.

inline int64_t FloorDiv(int64_t a, int64_t b) {
  GRETA_DCHECK(b > 0);
  int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

inline WindowId FirstWindowOf(Ts t, const WindowSpec& w) {
  if (w.unbounded()) return 0;
  WindowId first = FloorDiv(t - w.within, w.slide) + 1;
  return first < 0 ? 0 : first;
}

inline WindowId LastWindowOf(Ts t, const WindowSpec& w) {
  if (w.unbounded()) return 0;
  WindowId last = FloorDiv(t, w.slide);
  return last < 0 ? 0 : last;
}

inline Ts WindowStartTime(WindowId wid, const WindowSpec& w) {
  if (w.unbounded()) return kMinTs;
  return wid * w.slide;
}

/// First timestamp at or after which window `wid` no longer admits events;
/// seeing an event at this time (or later) closes the window.
inline Ts WindowCloseTime(WindowId wid, const WindowSpec& w) {
  if (w.unbounded()) return kMaxTs;
  return wid * w.slide + w.within;
}

/// Smallest window close on `w`'s grid strictly greater than `t` — the next
/// time at which an event closes a window; kMaxTs for unbounded windows
/// (and when the next close would not fit in Ts).
inline Ts NextCloseTime(Ts t, const WindowSpec& w) {
  if (w.unbounded()) return kMaxTs;
  if (t < w.within) return w.within;  // window 0's close
  const WindowId wid = FloorDiv(t - w.within, w.slide) + 1;
  if (wid > (kMaxTs - w.within) / w.slide) return kMaxTs;
  return WindowCloseTime(wid, w);
}

/// Upper bound on the number of windows any event falls into (the paper's
/// k), saturated at INT_MAX. The per-vertex aggregate storage is O(k)
/// (Theorem 8.1).
inline int MaxWindowsPerEvent(const WindowSpec& w) {
  if (w.unbounded()) return 1;
  const Ts k = (w.within + w.slide - 1) / w.slide;
  return k > INT_MAX ? INT_MAX : static_cast<int>(k);
}

/// Pane duration shared between overlapping windows (Section 7, "Time
/// Panes", after [15]): the largest interval that divides both window length
/// and slide, so every window is a whole number of panes.
inline Ts PaneSize(const WindowSpec& w) {
  if (w.unbounded()) return Ts{1} << 40;  // One giant pane per ~10^12 ticks.
  return std::gcd(w.within, w.slide);
}

}  // namespace greta

#endif  // GRETA_STORAGE_WINDOW_H_
