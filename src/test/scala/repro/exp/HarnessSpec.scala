package repro.exp

import org.apache.datasketches.kll.KllDoublesSketch
import repro.SparkSpec
import repro.core.{Practical, ReqSketch}

/** Smoke tests of the experiment harness at miniature scale — the bench
  * suites run the real sizes; these guard the plumbing and pin the rows
  * that are deterministic for a fixed seed.
  */
class HarnessSpec extends SparkSpec {

  test("ordered() produces permutations of the input") {
    val data = Workloads.uniform(1001, 1)
    Workloads.orders.foreach { ord =>
      val d = Workloads.ordered(data, ord)
      assert(d.sorted.toSeq == data.sorted.toSeq, s"order $ord lost items")
    }
  }

  test("ordered(sorted) ascends, ordered(reversed) descends") {
    val data = Workloads.uniform(100, 2)
    val s = Workloads.ordered(data, "sorted")
    assert(s.toSeq == s.sorted.toSeq)
    val r = Workloads.ordered(data, "reversed")
    assert(r.toSeq == r.sorted.reverse.toSeq)
  }

  test("ordered(zoomin) alternates extremes") {
    val data = Array(1.0, 2.0, 3.0, 4.0, 5.0)
    assert(Workloads.ordered(data, "zoomin").toSeq == Seq(1.0, 5.0, 2.0, 4.0, 3.0))
  }

  test("ordered rejects unknown order names") {
    intercept[IllegalArgumentException](Workloads.ordered(Array(1.0), "bogus"))
  }

  test("rankGrid is geometric and ends at n") {
    assert(Workloads.rankGrid(8).toSeq == Seq(1L, 2L, 4L, 8L))
    assert(Workloads.rankGrid(10).toSeq == Seq(1L, 2L, 4L, 8L, 10L))
    assert(Workloads.rankGrid(1).toSeq == Seq(1L))
  }

  test("errProfile is zero for an exact estimator") {
    val data = Workloads.uniform(5000, 3)
    val sorted = data.sorted
    val exact = (y: Double) => sorted.count(_ <= y).toLong
    val p = Harness.errProfile(exact, data)
    assert(p.maxRel == 0.0 && p.meanRel == 0.0)
  }

  test("errProfile reports the planted error") {
    val data = (1 to 1024).map(_.toDouble).toArray
    val biased = (y: Double) => (data.count(_ <= y) * 1.10).toLong // +10%
    val p = Harness.errProfile(biased, data)
    assert(p.maxRel <= 0.101 && p.maxRel >= 0.05)
  }

  test("t1SpaceVsN returns one row per n with positive predictions") {
    val rows = Harness.t1SpaceVsN(Seq(4096L, 16384L), eps = 0.1, delta = 0.2, seed = 1)
    assert(rows.map(_.n) == Seq(4096L, 16384L))
    rows.foreach { r =>
      assert(r.reqItems > 0 && r.reqPredicted > 0 && r.kllItems > 0 && r.phItems > 0)
    }
  }

  test("t2TailAccuracy: REQ beats KLL at the small-rank tail (mini size)") {
    val res = Harness.t2TailAccuracy(n = 65536, eps = 0.1, delta = 0.2, seed = 2)
    assert(res.reqMaxRel < res.kllMaxRelSmallRanks)
    assert(res.rows.nonEmpty)
  }

  test("t3Mergeability rows all summarize the same n (mini size)") {
    val data = Workloads.uniform(40000, 4)
    val rows = Harness.t3Mergeability(spark, data, eps = 0.1, delta = 0.2,
      seed = 5, chunks = 8)
    assert(rows.map(_.variant).distinct.size == 4)
    rows.foreach(r => assert(r.maxRel < 0.3 && r.items > 0))
  }

  test("t4EpsSweep space ratio grows as eps shrinks (mini size)") {
    val rows = Harness.t4EpsSweep(n = 30000, epss = Seq(0.2, 0.05),
      delta = 0.2, seed = 6)
    assert(rows.last.spaceRatio > rows.head.spaceRatio)
  }

  test("t5Throughput reports positive costs (mini size)") {
    val rows = Harness.t5Throughput(Seq(30000L), Seq(0.1), delta = 0.2, seed = 7)
    assert(rows.head.nsPerUpdate > 0 && rows.head.items > 0)
  }

  test("t6FailureProb rates are within [0, 1] and n-independent plumbing works") {
    val rows = Harness.t6FailureProb(n = 16384, eps = 0.1, deltas = Seq(0.2),
      trials = 20, seed = 8)
    assert(rows.head.worstQueryFailRate >= 0 && rows.head.worstQueryFailRate <= 1)
  }

  test("kllKForItems sizes KLL to within 0.5% of the target item count") {
    // Measured |kept - target| / target: 0.0033 at most (300 -> 301 and
    // 4000 -> 4011 at n = 2^16; 12141 -> 12141 and 12202 -> 12203 at
    // n = 2^20, where the former size formula kept 9115 and 11575 items).
    for ((n, target) <- Seq(65536 -> 300, 65536 -> 2898, 65536 -> 4000,
                            (1 << 20) -> 12141, (1 << 20) -> 12202)) {
      val kll = KllDoublesSketch.newHeapInstance(Harness.kllKForItems(target, n))
      Workloads.uniform(n, 9).foreach(kll.update)
      val rel = math.abs(kll.getNumRetained - target).toDouble / target
      assert(rel <= 0.005, s"n=$n target=$target kept=${kll.getNumRetained}")
    }
  }

  test("render produces an aligned table with all rows") {
    val out = Harness.render("demo", Seq("a", "bb"), Seq(Seq(1, 2.0), Seq(30, 4.5)))
    assert(out.contains("=== demo ==="))
    assert(out.trim.linesIterator.size == 5) // title, header, sep, 2 rows
    assert(out.contains("4.5000"))
  }

  // ----------------------------------------------------------- pinned rows
  //
  // What the tables print for fixed seeds, at miniature sizes: a change that
  // does not change the algorithm must leave these rows as they are. KLL's
  // errors (unseeded coins), T3 (its rows depend on the shuffle) and T5's
  // timings are not deterministic and are left out.

  test("t1SpaceVsN pins the REQ, ProtectedHalf and KLL item counts") {
    val rows = Harness.t1SpaceVsN(Seq(4096L, 16384L, 65536L), eps = 0.1, delta = 0.2, seed = 1)
    assert(rows.map(r => (r.n, r.reqItems, r.phItems, r.kllItems)) == Seq(
      (4096L, 1336, 696, 67), (16384L, 2034, 884, 88), (65536L, 2853, 1036, 106)))
  }

  test("t2TailAccuracy pins the REQ relative errors") {
    val res = Harness.t2TailAccuracy(n = 65536, eps = 0.1, delta = 0.2, seed = 2)
    assert(res.reqItems == 2898 && res.reqMaxRel == 0.0087890625)
    assert(res.rows.map(r => (r.rank, r.reqRelErr)) ==
      (0 to 8).map(i => (1L << i, 0.0)) ++ Seq(
        512L -> 0.00390625, 1024L -> 0.00390625, 2048L -> 0.005859375,
        4096L -> 0.0087890625, 8192L -> 0.005126953125, 16384L -> 0.00518798828125,
        32768L -> 0.001068115234375, 65536L -> 4.57763671875e-4))
  }

  test("t4EpsSweep pins its rows") {
    val rows = Harness.t4EpsSweep(n = 30000, epss = Seq(0.2, 0.05), delta = 0.2, seed = 6)
    assert(rows == Seq(
      Harness.T4Row(0.2, 1470, 308, 0.20952380952380953, 0.0126953125, 0.125),
      Harness.T4Row(0.05, 4276, 2800, 0.6548175865294668, 0.00244140625, 0.01171875)))
  }

  test("t6FailureProb pins its rows") {
    val rows = Harness.t6FailureProb(n = 16384, eps = 0.1, deltas = Seq(0.2, 0.05),
      trials = 20, seed = 8)
    assert(rows == Seq(Harness.T6Row(0.2, 0.1, 20, 0.0, 0.0),
                       Harness.T6Row(0.05, 0.1, 20, 0.0, 0.0)))
  }

  test("errProfile handles a sketch over zipf data end to end") {
    val data = Workloads.zipf(spark, rows = 20000, nKeys = 100, seed = 9)
    val s = ReqSketch(0.1, 0.1, Practical, seed = 10)
    s.updateAll(data)
    val p = Harness.errProfile(s.rank, data)
    assert(p.maxRel <= 0.15)
  }
}
