package repro.core

import scala.collection.mutable.ArrayBuffer

/** The level stack shared by `ReqSketch` and the protected-half baseline:
  * relative-compactor levels, level h holding items of weight `2^h`, the
  * seed of their compaction coins and the count of items summarized. The
  * paper's "simple approach" (Section 1) is this stack with the schedule
  * removed, and Algorithms 2 and 4 run the same operations on it for both:
  * the bottom-up compaction cascade and the level-by-level merge. Every query
  * (`rank`, `quantile`, `coreset`) reads the weighted coreset of Section
  * 2.2, and `rank` and `quantile` share one weighted count over keys.
  *
  * A subclass supplies `newLevel()` and where a full level's compaction
  * starts, and appends its own first level once the parameters
  * `newLevel()` reads are set.
  *
  * @param seed coin seed; 0 means "draw one from entropy" (`coinSeed`)
  */
abstract class LevelStack(val seed: Long) {

  protected[core] val levels = ArrayBuffer.empty[RelativeCompactor]

  /** Total number of input items summarized. */
  protected[core] var count: Long = 0L

  /** The seed coins derive from: `seed`, or a non-zero draw from entropy,
    * made once, when `seed` is 0. The wire carries it.
    */
  protected[core] val coinSeed: Long = if (seed != 0) seed else ReqSketch.entropySeed()

  /** An empty level with the stack's current parameters. */
  protected def newLevel(): RelativeCompactor

  /** Index, in the sorted order of a level at or over capacity, where the
    * range its compaction removes starts.
    */
  protected def compactionStart(level: RelativeCompactor): Int

  /** Stream one item into the sketch. */
  def update(x: Double): Unit

  def updateAll(xs: IterableOnce[Double]): Unit = xs.iterator.foreach(update)

  /** Number of items summarized so far. */
  def n: Long = count

  /** Index of the highest level (H in the paper); levels are 0..height. */
  def height: Int = levels.size - 1

  /** Total number of universe items stored — the paper's space measure. */
  def itemsStored: Int = levels.iterator.map(_.size).sum

  /** Σ_h 2^h·|buffer_h| — equals n exactly in the pure streaming setting
    * (every scheduled compaction there halves an even-sized range) and
    * stays an unbiased estimate of n under merges. Every key is at most
    * `Long.MaxValue`.
    */
  def totalWeight: Long = weightAtMost(Long.MaxValue)

  /** Estimated rank R̂(y) = Σ_h 2^h · |{x ≤ y stored at level h}| under IEEE
    * `<=`: −0.0 and 0.0 tie, a stored NaN is never counted, y = NaN ranks 0.
    * 0 on an empty sketch.
    */
  def rank(y: Double): Long =
    if (y != y) 0L else weightAtMost(RelativeCompactor.key(if (y == 0.0) 0.0 else y))

  /** Approximate φ-quantile: the least stored item whose estimated rank
    * reaches φ·n (φ ∈ (0, 1]), or the largest stored item when the stored
    * weight falls short of φ·n. NaN when no item is stored (as when n = 0).
    * Bisects the signed key range for the least key whose weight reaches
    * the target: 64 probes of `weightAtMost`.
    */
  def quantile(phi: Double): Double = {
    require(phi > 0 && phi <= 1, s"phi must be in (0,1], got $phi")
    val target = math.min(math.max(1L, math.ceil(phi * count).toLong), totalWeight)
    if (target == 0) return Double.NaN
    var lo = Long.MinValue
    var hi = Long.MaxValue // weightAtMost(hi) >= target throughout
    while (lo < hi) {
      val mid = (lo >> 1) + (hi >> 1) + (lo & hi & 1) // ⌊(lo + hi) / 2⌋
      if (weightAtMost(mid) >= target) hi = mid else lo = mid + 1
    }
    RelativeCompactor.item(lo)
  }

  /** The weighted coreset: (item, weight) sorted by item, equal items in
    * level order — a stable sort by key of the levels' items, level 0
    * first. `Arrays.sort` on objects is a stable merge sort that merges the
    * levels' sorted runs as it finds them.
    */
  def coreset: Array[(Double, Long)] = {
    val out = new Array[(Double, Long)](itemsStored)
    var i = 0
    for (h <- levels.indices) {
      val keys = levels(h).sortedKeys
      for (j <- 0 until levels(h).size) { out(i) = (RelativeCompactor.item(keys(j)), 1L << h); i += 1 }
    }
    java.util.Arrays.sort(out, (a: (Double, Long), b: (Double, Long)) =>
      java.lang.Long.compare(RelativeCompactor.key(a._1), RelativeCompactor.key(b._1)))
    out
  }

  /** Σ_h 2^h·|{keys ≤ `ky` at level h}|, the one weighted count behind
    * `rank` and `quantile`.
    */
  private def weightAtMost(ky: Long): Long = {
    var w = 0L
    var h = 0
    while (h < levels.size) { w += (1L << h) * levels(h).countAtMost(ky); h += 1 }
    w
  }

  /** The coin of the next compaction of level h: the top bit of a SplitMix64
    * hash of (coin seed, h, C_h), C_h the level's state before it. C_h rises
    * by one at each compaction and an OR merge never lowers it, so no
    * (h, C_h) repeats in one sketch's history, and a sketch decoded from its
    * bytes, which carry the seed and every C_h, draws the coins the original
    * would.
    */
  protected def coin(h: Int): Boolean =
    ReqSketch.scramble(ReqSketch.scramble(coinSeed) + ReqSketch.Gamma * h + levels(h).state) < 0

  /** Compacts level h from index `from` of its sorted order and cascades
    * the output, a sorted run of keys, into level h+1, creating it if
    * needed, by merging it into that level's sorted keys.
    */
  protected def promote(h: Int, from: Int): Unit =
    levels(h).compactInto(from, coin(h)) {
      if (h + 1 == levels.size) levels += newLevel()
      levels(h + 1)
    }

  /** Single bottom-up pass of compactions on any level at or over capacity:
    * the update cascade (Algorithm 2) and Algorithm 4 lines 12–17. One
    * compaction always brings a level below capacity because it removes the
    * whole over-capacity suffix.
    */
  protected def compressAll(): Unit = {
    var h = 0
    while (h < levels.size) {
      while (levels(h).isAtCapacity) promote(h, compactionStart(levels(h)))
      h += 1
    }
  }

  /** Algorithm 4 lines 8–11: OR each of `src`'s level states into this
    * stack's level of the same height, then merge in its items as one
    * sorted run. `src` has no more levels than this stack.
    */
  protected def absorb(src: LevelStack): Unit = {
    var h = 0
    while (h < src.levels.size) {
      val from = src.levels(h)
      levels(h).absorbState(from.state)
      levels(h).mergeKeys(from.sortedKeys, from.size)
      h += 1
    }
  }
}
