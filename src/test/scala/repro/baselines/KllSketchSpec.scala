package repro.baselines

import org.apache.datasketches.common.SketchesArgumentException
import org.apache.datasketches.kll.KllDoublesSketch
import org.scalatest.funsuite.AnyFunSuite
import repro.core.ExactRank
import repro.exp.{Harness, Workloads}

/** The additive-error KLL baseline of T1/T2 (DataSketches
  * `KllDoublesSketch`, queried through `Harness.kllRank`): its *additive*
  * guarantee must hold, and its *relative* error at small ranks must blow
  * up — that contrast is the paper's motivation (Section 1). The sketch
  * takes no seed, so the accuracy bounds here leave room for its coins.
  */
class KllSketchSpec extends AnyFunSuite {

  private def sketch(k: Int, xs: Array[Double]): KllDoublesSketch = {
    val s = KllDoublesSketch.newHeapInstance(k)
    xs.foreach(s.update)
    s
  }

  private def rank(s: KllDoublesSketch, y: Double): Long = Harness.kllRank(s, y)

  test("constructor rejects k < 8") {
    intercept[SketchesArgumentException](KllDoublesSketch.newHeapInstance(4))
  }

  test("small streams are exact") {
    val xs = Workloads.uniform(100, 2)
    val s = sketch(200, xs)
    xs.sorted.zipWithIndex.foreach { case (x, i) => assert(rank(s, x) == i + 1) }
  }

  test("total weight equals n (rank of +inf)") {
    for (n <- Seq(1000, 50000, 200000))
      assert(rank(sketch(200, Workloads.uniform(n, n)), Double.MaxValue) == n)
  }

  test("rank is monotone in the query") {
    val s = sketch(150, Workloads.uniform(100000, 5))
    val rs = (0 to 100).map(i => rank(s, i / 100.0))
    assert(rs == rs.sorted)
  }

  test("space is bounded: ~3k + O(log n) items") {
    val s = sketch(200, Workloads.uniform(500000, 7))
    assert(s.getNumRetained <= 3 * 200 + 16 * 20, s"items=${s.getNumRetained}")
  }

  for (n <- Seq(50000, 200000)) {
    test(s"additive error is small: |err| <= n/50 at k=200, n=$n") {
      val data = Workloads.uniform(n, 8)
      val s = sketch(200, data)
      val sorted = data.sorted
      val qs = (1 to 19).map(i => sorted(n * i / 20)).toArray
      val truths = ExactRank.ranksLocal(sorted.clone(), qs)
      qs.indices.foreach { i =>
        val err = rank(s, qs(i)) - truths(i)
        assert(math.abs(err) <= n / 50.0, s"q$i err=$err")
      }
    }
  }

  test("relative error at the low tail is poor (the paper's motivation)") {
    val n = 200000
    val sorted = Workloads.uniform(n, 10).sorted
    val s = sketch(100, Workloads.uniform(n, 10))
    // among ranks 1..64, the *relative* error of an additive sketch is
    // typically enormous; require that it exceeds 50% somewhere.
    val worst = (0 until 7).map { i =>
      val r = 1L << i
      math.abs(rank(s, sorted((r - 1).toInt)) - r).toDouble / r
    }.max
    assert(worst > 0.5, f"KLL tail relative error unexpectedly good: $worst%.3f")
  }

  test("merge combines counts and keeps additive accuracy") {
    val n = 100000
    val data = Workloads.uniform(n, 12)
    val (l, r) = data.splitAt(n / 2)
    val m = sketch(200, l)
    m.merge(sketch(200, r))
    assert(m.getN == n && rank(m, Double.MaxValue) == n)
    val med = data.sorted.apply(n / 2)
    assert(math.abs(rank(m, med) - (n / 2 + 1)) <= n / 40.0)
  }

  test("quantile returns a stored value near the target rank") {
    val n = 100000
    val data = Workloads.uniform(n, 15)
    val q = sketch(300, data).getQuantile(0.5)
    val t = ExactRank.ranksLocal(data.sorted, Array(q)).head
    assert(math.abs(t - n / 2) <= n / 40.0)
  }
}
