// The paper's published values (Tables II-IV and the Figure 2 ratios),
// the one copy that `peerscope reproduce` and the benchmark compare
// their measurements against.
#pragma once

namespace peerscope::aware {

/// Table II row.
struct PaperSummary {
  const char* app;
  double rx_mean, rx_max, tx_mean, tx_max;
  double peers_mean, peers_max;
  double contrib_rx_mean, contrib_rx_max;
  double contrib_tx_mean, contrib_tx_max;
  double observed_total;
};

inline constexpr PaperSummary kPaperTable2[] = {
    {"PPLive", 552, 934, 3384, 11818, 23101, 39797, 391, 841, 1025, 2570,
     181729},
    {"SopCast", 449, 542, 293, 1070, 776, 1233, 139, 229, 152, 243, 4057},
    {"TVAnts", 419, 478, 464, 1001, 229, 270, 58, 90, 75, 118, 550},
};

/// Table III row.
struct PaperSelfBias {
  const char* app;
  double contrib_peer_pct, contrib_bytes_pct;
  double all_peer_pct, all_bytes_pct;
};

inline constexpr PaperSelfBias kPaperTable3[] = {
    {"PPLive", 0.95, 3.54, 0.10, 3.33},
    {"SopCast", 10.25, 17.71, 4.60, 19.45},
    {"TVAnts", 29.82, 56.31, 15.56, 56.06},
};

/// Table IV cell: {B'D, P'D, BD, PD, B'U, P'U, BU, PU}; negative means
/// the paper prints "-".
struct PaperAwareness {
  const char* metric;
  const char* app;
  double bpd, ppd, bd, pd;
  double bpu, ppu, bu, pu;
};

inline constexpr double kDash = -1.0;

inline constexpr PaperAwareness kPaperTable4[] = {
    {"BW", "PPLive", 95.9, 85.9, 95.6, 86.1, kDash, kDash, kDash, kDash},
    {"BW", "SopCast", 98.2, 83.3, 98.5, 85.3, kDash, kDash, kDash, kDash},
    {"BW", "TVAnts", 96.5, 83.2, 98.2, 89.6, kDash, kDash, kDash, kDash},
    {"AS", "PPLive", 6.5, 0.6, 12.8, 1.3, 0.8, 0.2, 1.8, 0.5},
    {"AS", "SopCast", 0.6, 0.7, 3.5, 3.9, 1.7, 0.7, 6.4, 3.9},
    {"AS", "TVAnts", 7.3, 3.3, 32.0, 13.5, 11.6, 1.8, 30.1, 9.6},
    {"CC", "PPLive", 6.5, 0.6, 13.1, 1.4, 1.1, 0.3, 2.1, 0.6},
    {"CC", "SopCast", 0.6, 0.8, 4.0, 4.4, 1.7, 0.8, 7.2, 4.4},
    {"CC", "TVAnts", 7.6, 4.0, 37.9, 16.3, 14.3, 3.1, 37.7, 12.5},
    {"NET", "PPLive", kDash, kDash, 9.9, 0.8, kDash, kDash, 1.4, 0.3},
    {"NET", "SopCast", kDash, kDash, 2.0, 2.6, kDash, kDash, 3.5, 2.6},
    {"NET", "TVAnts", kDash, kDash, 18.1, 6.7, kDash, kDash, 18.1, 5.4},
    {"HOP", "PPLive", 42.2, 41.1, 51.4, 42.4, 30.4, 40.4, 31.7, 41.0},
    {"HOP", "SopCast", 29.0, 40.7, 37.9, 48.0, 45.9, 43.0, 56.9, 49.8},
    {"HOP", "TVAnts", 62.1, 55.0, 81.1, 71.9, 57.8, 53.0, 78.9, 67.2},
};

/// Figure 2 intra/inter-AS traffic ratios reported in §IV-B.
struct PaperAsRatio {
  const char* app;
  double ratio;
};

inline constexpr PaperAsRatio kPaperFig2Ratios[] = {
    {"SopCast", 0.2},
    {"TVAnts", 1.93},
    {"PPLive", 0.98},
};

}  // namespace peerscope::aware
