#include "exact/ilp_writer.hpp"

#include <fstream>
#include <ostream>

#include "util/require.hpp"
#include "util/strings.hpp"

namespace cawo {

namespace {

std::string su(TaskId u, Time t) {
  return "s_" + std::to_string(u) + "_" + std::to_string(t);
}
std::string eu(TaskId u, Time t) {
  return "e_" + std::to_string(u) + "_" + std::to_string(t);
}
std::string ru(TaskId u, Time t) {
  return "r_" + std::to_string(u) + "_" + std::to_string(t);
}

} // namespace

IlpStats writeIlp(std::ostream& out, const EnhancedGraph& gc,
                  const PowerProfile& profile, Time deadline) {
  CAWO_REQUIRE(deadline > 0, "deadline must be positive");
  CAWO_REQUIRE(profile.horizon() >= deadline,
               "profile must cover the deadline");
  const Time T = deadline;
  const TaskId N = gc.numNodes();

  IlpStats stats;
  std::int64_t cid = 0;
  auto cname = [&cid]() { return indexedName("c", ++cid); };

  // Big-M: no schedule can draw more brown power per unit than the total
  // platform power (Appendix A.4).
  Power bigM = 0;
  for (ProcId p = 0; p < gc.numProcs(); ++p)
    bigM += gc.idlePower(p) + gc.workPower(p);
  if (bigM <= 0) bigM = 1;

  out << "\\ CaWoSched ILP — Appendix A.4 of the paper\n";
  out << "\\ N=" << N << " tasks, T=" << T << " time units, P="
      << gc.numProcs() << " processors, M=" << bigM << "\n";

  // Objective: minimise total brown power usage (Eq. before (5)).
  out << "Minimize\n obj:";
  for (Time t = 0; t < T; ++t) out << (t ? " + " : " ") << "bu_" << t;
  out << "\nSubject To\n";

  for (TaskId u = 0; u < N; ++u) {
    const Time len = gc.len(u);
    // (5) start exactly once, early enough to finish.
    out << ' ' << cname() << ":";
    for (Time t = 0; t + len <= T; ++t)
      out << (t ? " + " : " ") << su(u, t);
    out << " = 1\n";
    ++stats.numConstraints;
    // (6) never start too late (empty when len < 2).
    if (T - len + 1 <= T - 1) {
      out << ' ' << cname() << ":";
      bool first = true;
      for (Time t = T - len + 1; t < T; ++t) {
        out << (first ? " " : " + ") << su(u, t);
        first = false;
      }
      out << " = 0\n";
      ++stats.numConstraints;
    }
    // (7) no end before ω(u)−1.
    if (len >= 2) {
      out << ' ' << cname() << ":";
      bool first = true;
      for (Time t = 0; t + 2 <= len; ++t) {
        out << (first ? " " : " + ") << eu(u, t);
        first = false;
      }
      out << " = 0\n";
      ++stats.numConstraints;
    }
    // (8) end exactly once.
    out << ' ' << cname() << ":";
    {
      bool first = true;
      for (Time t = std::max<Time>(len - 1, 0); t < T; ++t) {
        out << (first ? " " : " + ") << eu(u, t);
        first = false;
      }
    }
    out << " = 1\n";
    ++stats.numConstraints;
    // (9) start/end alignment: s_{u,t} = e_{u,t+len-1}.
    for (Time t = 0; t + len <= T; ++t) {
      out << ' ' << cname() << ": " << su(u, t) << " - "
          << eu(u, t + len - 1) << " = 0\n";
      ++stats.numConstraints;
    }
    // (10) total running time equals ω(u).
    out << ' ' << cname() << ":";
    for (Time t = 0; t < T; ++t) out << (t ? " + " : " ") << ru(u, t);
    out << " = " << len << "\n";
    ++stats.numConstraints;
    // (11) running indicators cover the execution window.
    for (Time t = 0; t + len <= T; ++t) {
      for (Time k = t; k < t + len; ++k) {
        out << ' ' << cname() << ": " << ru(u, k) << " - " << su(u, t)
            << " >= 0\n";
        ++stats.numConstraints;
      }
    }
  }

  // (12) precedence: s_{v,t} <= sum_{l<t} e_{u,l}.
  for (TaskId u = 0; u < N; ++u) {
    for (TaskId v : gc.succs(u)) {
      for (Time t = 0; t + gc.len(v) <= T; ++t) {
        out << ' ' << cname() << ": " << su(v, t);
        for (Time l = 0; l < t; ++l) out << " - " << eu(u, l);
        out << " <= 0\n";
        ++stats.numConstraints;
      }
    }
  }

  // Power accounting per time unit.
  const Power totalIdle = gc.totalIdlePower();
  for (Time t = 0; t < T; ++t) {
    const Power green = profile.greenAt(t);
    // (23) gamma_t = Σ idle + Σ_u r_{u,t} · P_work^{proc(u)}.
    out << ' ' << cname() << ": gamma_" << t;
    for (TaskId u = 0; u < N; ++u)
      out << " - " << gc.workPower(gc.procOf(u)) << ' ' << ru(u, t);
    out << " = " << totalIdle << "\n";
    ++stats.numConstraints;
    // (16) bu_t >= gamma_t - G_t.
    out << ' ' << cname() << ": bu_" << t << " - gamma_" << t
        << " >= " << -green << "\n";
    // (17) bu_t <= gamma_t - G_t + M(1 - alpha_t).
    out << ' ' << cname() << ": bu_" << t << " - gamma_" << t << " + " << bigM
        << " alpha_" << t << " <= " << (bigM - green) << "\n";
    // (18) bu_t <= M·alpha_t.
    out << ' ' << cname() << ": bu_" << t << " - " << bigM << " alpha_" << t
        << " <= 0\n";
    // (19) gamma_t - G_t <= M·alpha_t.
    out << ' ' << cname() << ": gamma_" << t << " - " << bigM << " alpha_" << t
        << " <= " << green << "\n";
    // (20) gamma_t - G_t >= eps - M(1 - alpha_t), integer eps = 1.
    out << ' ' << cname() << ": gamma_" << t << " + " << bigM << " alpha_" << t
        << " >= " << (green + 1 - bigM) << "\n";
    // (22) gu_t + bu_t = gamma_t.
    out << ' ' << cname() << ": gu_" << t << " + bu_" << t << " - gamma_" << t
        << " = 0\n";
    stats.numConstraints += 6;
  }

  // Bounds: gu_t may not exceed the green budget (part of Eq. (13)).
  out << "Bounds\n";
  for (Time t = 0; t < T; ++t)
    out << " 0 <= gu_" << t << " <= " << profile.greenAt(t) << "\n";
  for (Time t = 0; t < T; ++t) out << " bu_" << t << " >= 0\n";
  for (Time t = 0; t < T; ++t) out << " gamma_" << t << " >= 0\n";

  out << "Generals\n";
  for (Time t = 0; t < T; ++t)
    out << " gu_" << t << " bu_" << t << " gamma_" << t << "\n";
  stats.numVariables += static_cast<std::size_t>(T) * 3;

  out << "Binaries\n";
  for (Time t = 0; t < T; ++t) out << " alpha_" << t << "\n";
  stats.numBinaries += static_cast<std::size_t>(T);
  for (TaskId u = 0; u < N; ++u) {
    for (Time t = 0; t < T; ++t)
      out << ' ' << su(u, t) << ' ' << eu(u, t) << ' ' << ru(u, t) << "\n";
    stats.numBinaries += static_cast<std::size_t>(T) * 3;
  }
  stats.numVariables += stats.numBinaries;
  out << "End\n";
  return stats;
}

IlpStats writeIlpFile(const std::string& path, const EnhancedGraph& gc,
                      const PowerProfile& profile, Time deadline) {
  std::ofstream out(path);
  CAWO_REQUIRE(out.good(), "cannot open ILP output file: " + path);
  return writeIlp(out, gc, profile, deadline);
}

} // namespace cawo
