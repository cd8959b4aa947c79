package perfbench

import repro.core.ReqSketch
import repro.exp.Workloads

/** Answer checks, counted as operations: every checked answer adds one to
  * `attempted` and, if wrong, one to `failed`.
  *
  * `injectWrong` corrupts the first rank answer that reaches a check, so the
  * smoke test can prove that a wrong answer is counted as a failure.
  */
final class Checks(eps: Double, injectWrong: Boolean) {
  var attempted = 0L
  var failed = 0L
  private var injected = false
  private val firstFailures = scala.collection.mutable.ArrayBuffer.empty[String]

  def check(ok: Boolean, what: => String): Unit = {
    attempted += 1
    if (!ok) {
      failed += 1
      if (firstFailures.size < 20) firstFailures += what
    }
  }

  def failures: Seq[String] = firstFailures.toSeq

  /** Relative-error guarantee of Theorem 1: |R̂(y) − R(y)| ≤ ε·R(y). */
  def rank(est: Long, truth: Long, what: => String): Unit = {
    val e = if (injectWrong && !injected) { injected = true; 2 * est + 10 } else est
    check(math.abs(e - truth) <= eps * truth, s"$what: rank $e vs exact $truth")
  }

  /** A φ-quantile answer q with exact rank `truth` for target rank t =
    * ⌈φ·n⌉. The rank guarantee bounds |R(q) − t| by about ε·t plus the
    * weight of one stored item (at most 2^height); allow 2ε·t + 2^height.
    */
  def quantile(truth: Long, target: Long, height: Int, what: => String): Unit =
    check(math.abs(truth - target) <= 2 * eps * target + (1L << height),
      s"$what: quantile has exact rank $truth, target $target")
}

/** Exact ground truth over a local copy of the input. */
final class Exact(data: Array[Double]) {
  val sorted: Array[Double] = { val a = data.clone(); java.util.Arrays.sort(a); a }

  def n: Long = sorted.length.toLong

  /** R(y) = |{x ≤ y}|. */
  def rank(y: Double): Long = Exact.upperBound(sorted, y).toLong

  /** Rank grid {1, 2, 4, …, n} of `Workloads.rankGrid` as query points. */
  def gridQueries: Array[Double] = Workloads.rankGrid(n).map(r => sorted((r - 1).toInt))

  /** Largest relative rank error of `s` over the rank grid; each grid point
    * is also one checked operation.
    */
  def gridError(s: ReqSketch, checks: Checks, label: String): Double = {
    var worst = 0.0
    for (y <- gridQueries) {
      val truth = rank(y)
      val est = s.rank(y)
      worst = math.max(worst, math.abs(est - truth).toDouble / truth)
      checks.rank(est, truth, s"$label y=$y")
    }
    worst
  }

  /** Upper-tail error of quantile(0.999) against n − R: the sketch protects
    * low ranks only, so this is reported, not checked.
    */
  def upperTailError(s: ReqSketch): Double = {
    val target = math.ceil(0.999 * n).toLong
    val tailTrue = n - rank(s.quantile(0.999))
    math.abs(tailTrue - (n - target)).toDouble / (n - target)
  }
}

object Exact {
  /** Number of elements of the sorted array that are ≤ y. */
  def upperBound(sorted: Array[Double], y: Double): Int = {
    var lo = 0
    var hi = sorted.length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (sorted(mid) <= y) lo = mid + 1 else hi = mid
    }
    lo
  }

  /** Exact R(y) within stream prefixes: `queries(i)` asks for the rank of
    * `values(i)` among the first `prefix(i)` items of `stream`; prefixes must
    * be non-decreasing. One sweep with a Fenwick tree over value order.
    */
  def prefixRanks(stream: Array[Double], prefix: Array[Int], values: Array[Double],
                  count: Int): Array[Long] = {
    val sorted = stream.clone()
    java.util.Arrays.sort(sorted)
    val tree = new Array[Int](sorted.length + 1)
    val out = new Array[Long](count)
    var inserted = 0
    var q = 0
    while (q < count) {
      while (inserted < prefix(q)) {
        var i = upperBound(sorted, stream(inserted))
        while (i <= sorted.length) { tree(i) += 1; i += i & -i }
        inserted += 1
      }
      var i = upperBound(sorted, values(q))
      var c = 0L
      while (i > 0) { c += tree(i); i -= i & -i }
      out(q) = c
      q += 1
    }
    out
  }
}
