package repro.core

/** Exact rank ground truth used to score the sketches: `R(y) = |{x ≤ y}|`.
  * The test suite checks it against brute force, against a Spark
  * aggregation and, through that, against DuckDB, so the "truth" the
  * benchmarks diff against is itself verified.
  */
object ExactRank {

  /** Exact ranks of `queries` within a local array (sorted via binary
    * search; the array is sorted in place).
    */
  def ranksLocal(data: Array[Double], queries: Array[Double]): Array[Long] = {
    java.util.Arrays.sort(data)
    queries.map { q =>
      // upper bound: number of elements <= q
      var lo = 0
      var hi = data.length
      while (lo < hi) {
        val mid = (lo + hi) >>> 1
        if (data(mid) <= q) lo = mid + 1 else hi = mid
      }
      lo.toLong
    }
  }
}
