package repro.core

import java.io.{InvalidObjectException, StreamCorruptedException}
import java.nio.ByteBuffer
import scala.collection.mutable.ArrayBuffer

/** The Relative-Error Quantiles (REQ) sketch — Algorithms 2–4 of
  * "Relative Error Streaming Quantiles" (Cormode–Karnin–Liberty–Thaler–
  * Veselý, PODS 2021), including the unknown-stream-length machinery of
  * Section 5 / Appendix C (N-squaring with in-place parameter recomputation
  * and special compactions) and the fully-general merge of Algorithm 4.
  *
  * Levels are relative-compactors; an item stored at level h represents
  * `2^h` input items. `rank(y)` sums `2^h · |{x ≤ y at level h}|` over the
  * level buffers (the weighted coreset of Section 2.2).
  *
  * Guarantee (Theorem 1): for fixed y,
  * `Pr[|rank(y) − R(y)| ≥ ε·R(y)] < δ`, storing
  * `O(ε⁻¹·log^1.5(εn)·√log(1/δ))` items.
  *
  * Instances are mutable. `ReqSketch.toBytes`/`fromBytes` define a versioned
  * binary wire format; Java serialization (Spark aggregation buffers and task
  * results) writes the same bytes through a proxy, never the fields. A
  * decoded sketch re-creates its RNG lazily (from `seed`, or entropy when
  * `seed == 0`). Not thread-safe.
  *
  * @param eps     target relative error ε ∈ (0, 1]
  * @param delta   target failure probability δ ∈ (0, 0.5]
  * @param profile constant schedule (Theory / Practical / FixedK)
  * @param seed    RNG seed; 0 means "seed from entropy" (use explicit seeds
  *                for reproducible tests, distinct per distributed partition)
  */
final class ReqSketch(
    val eps: Double,
    val delta: Double,
    val profile: ParamProfile,
    val seed: Long
) extends Serializable {

  require(eps > 0 && eps <= 1, s"eps must be in (0,1], got $eps")
  require(delta > 0 && delta <= 0.5, s"delta must be in (0,0.5], got $delta")

  /** Total number of input items summarized. */
  private var count: Long = 0L

  /** Current upper bound N on the input size (squared when exceeded). */
  private var bound: Long = profile.initialBound(eps, delta)

  private var k: Int = profile.sectionSize(bound, eps, delta)
  private var sections: Int = profile.numSections(bound, k)

  private val levels = ArrayBuffer(new RelativeCompactor(k, sections))

  private lazy val rng = ReqSketch.newRng(seed)

  // ---------------------------------------------------------------- queries

  /** Number of items summarized so far. */
  def n: Long = count

  /** Current input-size upper bound N. */
  def nBound: Long = bound

  /** Current section size k. */
  def sectionSize: Int = k

  /** Current per-level buffer capacity B. */
  def bufferCapacity: Int = 2 * k * sections

  /** Index of the highest level (H in the paper); levels are 0..height. */
  def height: Int = levels.size - 1

  /** Total number of universe items stored — the paper's space measure. */
  def itemsStored: Int = levels.iterator.map(_.size).sum

  /** Σ_h 2^h·|buffer_h| — equals n exactly in the pure streaming setting
    * (every scheduled compaction there halves an even-sized range) and
    * stays an unbiased estimate of n under merges.
    */
  def totalWeight: Long = {
    var w = 0L
    var h = 0
    while (h < levels.size) { w += (1L << h) * levels(h).size; h += 1 }
    w
  }

  /** Estimated rank R̂(y) = Σ_h 2^h · |{x ≤ y stored at level h}|; 0 on an
    * empty sketch.
    */
  def rank(y: Double): Long = {
    var r = 0L
    var h = 0
    while (h < levels.size) { r += (1L << h) * levels(h).countAtMost(y); h += 1 }
    r
  }

  /** Estimated rank of each query (batch form of `rank`). */
  def ranks(ys: Array[Double]): Array[Long] = ys.map(rank)

  /** The weighted coreset: (item, weight) sorted by item. */
  def coreset: Array[(Double, Long)] = {
    val out = new ArrayBuffer[(Double, Long)](itemsStored)
    var h = 0
    while (h < levels.size) {
      val w = 1L << h
      levels(h).items.foreach(x => out += ((x, w)))
      h += 1
    }
    out.sortBy(_._1).toArray
  }

  /** Approximate φ-quantile: the smallest stored item whose estimated rank
    * is ≥ φ·n (φ ∈ (0, 1]). NaN on an empty sketch.
    */
  def quantile(phi: Double): Double = {
    require(phi > 0 && phi <= 1, s"phi must be in (0,1], got $phi")
    if (count == 0) return Double.NaN
    val target = math.max(1L, math.ceil(phi * count).toLong)
    val cs = coreset
    var acc = 0L
    var i = 0
    while (i < cs.length) {
      acc += cs(i)._2
      if (acc >= target) return cs(i)._1
      i += 1
    }
    cs.last._1
  }

  /** Per-level sizes, for space accounting in the benches. */
  def levelSizes: IndexedSeq[Int] = levels.map(_.size).toIndexedSeq

  /** Schedule state of level h (exposed for tests of the OR-merge rule). */
  def levelState(h: Int): Long = levels(h).state

  // ---------------------------------------------------------------- updates

  /** Stream one item into the sketch (Algorithm 2). NaN is skipped: it has
    * no rank, so counting it would make `n` disagree with `rank`.
    */
  def update(x: Double): Unit = {
    if (x.isNaN) return
    count += 1
    if (count > bound) growBound()
    levels(0).insert(x)
    var h = 0
    while (h < levels.size && levels(h).isAtCapacity) {
      promote(levels(h).compact(rng), h)
      h += 1
    }
  }

  def updateAll(xs: IterableOnce[Double]): Unit = xs.iterator.foreach(update)

  /** Merge `other` into the sketch with more levels and return it
    * (Algorithm 4). Both inputs are consumed: the returned sketch owns the
    * merged state and the other argument must not be reused. A sketch cannot
    * be merged with itself.
    */
  def merge(other: ReqSketch): ReqSketch = {
    require(!(other eq this), "cannot merge a sketch with itself")
    require(other.profile == profile && other.eps == eps && other.delta == delta,
      s"can only merge sketches with identical (eps, delta, profile): " +
        s"this has (eps=$eps, delta=$delta, $profile), other has " +
        s"(eps=${other.eps}, delta=${other.delta}, ${other.profile})")
    val (tgt, src) = if (this.levels.size >= other.levels.size) (this, other) else (other, this)
    tgt.count += src.count
    if (tgt.bound < tgt.count) {                 // Algorithm 4 lines 2–5
      tgt.specialCompactAll()
      while (tgt.bound < tgt.count) tgt.bound = square(tgt.bound)
      tgt.recomputeParams()
    }
    if (src.bound < tgt.bound) src.specialCompactAll() // lines 6–7
    var h = 0
    while (h < src.levels.size) {                // lines 8–11
      if (h == tgt.levels.size) tgt.addLevel()
      tgt.levels(h).absorbState(src.levels(h).state)
      tgt.levels(h).insertAll(src.levels(h).toArray)
      h += 1
    }
    tgt.compressAll()                            // lines 12–17
    tgt
  }

  // -------------------------------------------------------------- internals

  /** Cascade a compaction output into level h+1, creating it if needed. */
  private def promote(out: Array[Double], h: Int): Unit = {
    if (out.isEmpty) return
    if (h + 1 == levels.size) addLevel()
    levels(h + 1).insertAll(out)
  }

  private def addLevel(): Unit =
    levels += new RelativeCompactor(k, sections)

  /** Special compactions on levels 0..H−1 (Algorithm 4 SpecialCompactions):
    * each keeps at most B/2 items, promoting the compacted half upward.
    */
  private def specialCompactAll(): Unit = {
    var h = 0
    while (h < levels.size - 1) {
      promote(levels(h).specialCompact(rng), h)
      h += 1
    }
  }

  /** Single bottom-up pass of scheduled compactions on any level at or over
    * capacity (Algorithm 4 lines 12–17; one compaction always brings a level
    * below capacity because it removes the whole over-capacity suffix).
    */
  private def compressAll(): Unit = {
    var h = 0
    while (h < levels.size) {
      while (levels(h).isAtCapacity) promote(levels(h).compact(rng), h)
      h += 1
    }
  }

  /** Section 5 / footnote 7: when n exceeds N, special-compact every level,
    * square N and recompute (k, B) in place.
    */
  private def growBound(): Unit = {
    specialCompactAll()
    while (bound < count) bound = square(bound)
    recomputeParams()
    compressAll()
  }

  private def recomputeParams(): Unit = {
    k = profile.sectionSize(bound, eps, delta)
    sections = profile.numSections(bound, k)
    levels.foreach(_.setParams(k, sections))
  }

  private def square(x: Long): Long =
    if (x >= 3037000499L) Long.MaxValue else x * x

  private def writeReplace(): AnyRef = new ReqSketch.Wire(ReqSketch.toBytes(this))

  private def readObject(in: java.io.ObjectInputStream): Unit =
    throw new InvalidObjectException("a ReqSketch is deserialized through ReqSketch.Wire")
}

object ReqSketch {

  /** SplitMix64's increment (2^64 / the golden ratio). */
  private[core] val Gamma = 0x9e3779b97f4a7c15L

  /** SplitMix64 finalizer — decorrelates nearby seeds before they reach
    * java.util.Random.
    */
  def scramble(seed: Long): Long = {
    var z = seed + Gamma
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  /** The compaction-coin RNG of a sketch with this seed, shared by every
    * sketch class. The seed is scrambled because java.util.Random's first
    * outputs are heavily correlated across small sequential seeds, which
    * would correlate the coins of chunk sketches seeded 1, 2, 3… A seed of 0
    * seeds from entropy.
    */
  def newRng(seed: Long): java.util.Random =
    if (seed != 0) new java.util.Random(scramble(seed)) else new java.util.Random()

  /** Fresh empty sketch. See class docs for parameter meanings. */
  def apply(eps: Double = 0.01,
            delta: Double = 0.05,
            profile: ParamProfile = Practical,
            seed: Long = 0L): ReqSketch =
    new ReqSketch(eps, delta, profile, seed)

  // ------------------------------------------------------------ wire format
  //
  // Big-endian; DESIGN.md has the byte layout. Header: magic, version, flags
  // (must be 0), ε, δ, profile tag and FixedK k, seed, n, N, k, sections and
  // the level count; then one level record per level
  // (`RelativeCompactor.writeRecord`), each a sorted run.

  private val Magic = 0x52455153 // "REQS"
  private val Version: Byte = 1
  private val HeaderBytes = 63
  private val MaxLevels = 64

  /** Encodes the sketch in the versioned wire format. Sorts each level's
    * pending tail first, which leaves every later answer and compaction as
    * it would have been.
    */
  def toBytes(s: ReqSketch): Array[Byte] = {
    val out = ByteBuffer.allocate(HeaderBytes + s.levels.iterator.map(_.recordBytes).sum)
    val (tag, fixedK) = s.profile match {
      case Practical => (0, 0)
      case Theory    => (1, 0)
      case FixedK(k) => (2, k)
    }
    out.putInt(Magic).put(Version).put(0.toByte).putDouble(s.eps).putDouble(s.delta)
      .put(tag.toByte).putInt(fixedK).putLong(s.seed).putLong(s.count).putLong(s.bound)
      .putInt(s.k).putInt(s.sections).putInt(s.levels.size)
    s.levels.foreach(_.writeRecord(out))
    out.array()
  }

  /** Decodes `toBytes` output. Foreign bytes fail with an `IOException`:
    * `EOFException` when truncated, `StreamCorruptedException` for a wrong
    * magic or trailing bytes, `InvalidObjectException` for an unknown
    * version, flags or profile, or invalid parameters, counts or levels,
    * each raised before anything is allocated for it.
    */
  def fromBytes(b: Array[Byte]): ReqSketch = {
    val in = ByteBuffer.wrap(b)
    RelativeCompactor.need(in, HeaderBytes)
    if (in.getInt() != Magic) throw new StreamCorruptedException("not a REQ sketch: wrong magic")
    val version = in.get()
    if (version != Version)
      throw new InvalidObjectException(s"unsupported REQ sketch version $version (expected $Version)")
    val flags = in.get()
    if (flags != 0) throw new InvalidObjectException(s"unsupported REQ sketch flags $flags")
    val (eps, delta) = (in.getDouble(), in.getDouble())
    if (!(eps > 0 && eps <= 1 && delta > 0 && delta <= 0.5))
      throw new InvalidObjectException(s"invalid eps=$eps delta=$delta")
    val (tag, fixedK) = (in.get().toInt, in.getInt())
    val profile = (tag, fixedK) match {
      case (0, 0) => Practical
      case (1, 0) => Theory
      case (2, k) if k >= 2 && k % 2 == 0 => FixedK(k)
      case _ => throw new InvalidObjectException(s"unknown profile tag $tag with k=$fixedK")
    }
    val (seed, n, bound) = (in.getLong(), in.getLong(), in.getLong())
    if (n < 0 || bound < n) throw new InvalidObjectException(s"invalid n=$n N=$bound")
    val (k, sections, numLevels) = (in.getInt(), in.getInt(), in.getInt())
    if (numLevels < 1 || numLevels > MaxLevels)
      throw new InvalidObjectException(s"level count $numLevels outside [1, $MaxLevels]")
    val s = new ReqSketch(eps, delta, profile, seed)
    s.count = n
    s.bound = bound
    s.k = k
    s.sections = sections
    s.levels.clear()
    for (_ <- 0 until numLevels) {
      val level = RelativeCompactor.read(in)
      if (level.k != k || level.numSections != sections)
        throw new InvalidObjectException(s"level parameters (${level.k}, ${level.numSections})" +
          s" differ from the sketch's ($k, $sections)")
      s.levels += level
    }
    if (in.hasRemaining)
      throw new StreamCorruptedException(s"${in.remaining} trailing bytes after a REQ sketch")
    s
  }

  /** What Java serialization writes for a sketch (Spark aggregation buffers,
    * task results): its wire bytes, decoded by `fromBytes` on the way in.
    */
  @SerialVersionUID(1L)
  private final class Wire(bytes: Array[Byte]) extends Serializable {
    private def readResolve(): AnyRef = fromBytes(bytes)
  }
}
