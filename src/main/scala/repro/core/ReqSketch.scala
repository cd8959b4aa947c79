package repro.core

import java.io.{InvalidObjectException, StreamCorruptedException}
import java.nio.ByteBuffer

/** The Relative-Error Quantiles (REQ) sketch — Algorithms 2–4 of
  * "Relative Error Streaming Quantiles" (Cormode–Karnin–Liberty–Thaler–
  * Veselý, PODS 2021), including the unknown-stream-length machinery of
  * Section 5 / Appendix C (N-squaring with in-place parameter recomputation
  * and special compactions) and the fully-general merge of Algorithm 4.
  *
  * Levels are relative-compactors on the shared `LevelStack`; an item
  * stored at level h represents `2^h` input items. `rank(y)` sums
  * `2^h · |{x ≤ y at level h}|` over the level buffers (the weighted coreset
  * of Section 2.2). A full level runs a scheduled compaction.
  *
  * Guarantee (Theorem 1): for fixed y,
  * `Pr[|rank(y) − R(y)| ≥ ε·R(y)] < δ`, storing
  * `O(ε⁻¹·log^1.5(εn)·√log(1/δ))` items.
  *
  * Instances are mutable. `ReqSketch.toBytes`/`fromBytes` define a versioned
  * binary wire format, the sketch's only serialized form: Spark aggregation
  * buffers, shuffles and task results carry these bytes, and the class is not
  * `java.io.Serializable`. Each compaction's coin is a function of the coin
  * seed, the level and the level's state (`LevelStack.coin`), all of which the
  * bytes carry, so a decoded sketch continues exactly as the original would.
  * Not thread-safe.
  *
  * @param eps     target relative error ε ∈ (0, 1]
  * @param delta   target failure probability δ ∈ (0, 0.5]
  * @param profile constant schedule (Theory / Practical / FixedK)
  * @param seed    coin seed; 0 means "draw one from entropy", once, which
  *                `toBytes` writes in its place (use explicit seeds for
  *                reproducible tests, distinct per distributed partition)
  */
final class ReqSketch(
    val eps: Double,
    val delta: Double,
    val profile: ParamProfile,
    seed: Long
) extends LevelStack(seed) {

  require(eps > 0 && eps <= 1, s"eps must be in (0,1], got $eps")
  require(delta > 0 && delta <= 0.5, s"delta must be in (0,0.5], got $delta")

  /** Current upper bound N on the input size (squared when exceeded). */
  private var bound: Long = profile.initialBound(eps, delta)

  private var k: Int = profile.sectionSize(bound, eps, delta)
  private var sections: Int = profile.numSections(bound, k)

  levels += newLevel()

  // ---------------------------------------------------------------- queries

  /** Current input-size upper bound N. */
  def nBound: Long = bound

  /** Current section size k. */
  def sectionSize: Int = k

  /** Current per-level buffer capacity B. */
  def bufferCapacity: Int = 2 * k * sections

  /** Estimated rank of each query (batch form of `rank`). */
  def ranks(ys: Array[Double]): Array[Long] = ys.map(rank)

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
    if (levels(0).isAtCapacity) compressAll()
  }

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
    if (tgt.bound < tgt.count) tgt.growBound()   // Algorithm 4 lines 2–5
    if (src.bound < tgt.bound) src.specialCompactAll() // lines 6–7
    tgt.absorb(src)                              // lines 8–11
    tgt.compressAll()                            // lines 12–17
    tgt
  }

  // -------------------------------------------------------------- internals

  protected def newLevel(): RelativeCompactor = new RelativeCompactor(k, sections)

  protected def compactionStart(level: RelativeCompactor): Int = level.scheduledStart

  /** Special compactions on levels 0..H−1 (Algorithm 4 SpecialCompactions):
    * each keeps at most B/2 items, promoting the compacted half upward.
    */
  private def specialCompactAll(): Unit = {
    var h = 0
    while (h < levels.size - 1) {
      promote(h, levels(h).capacity / 2)
      h += 1
    }
  }

  /** Section 5 / footnote 7 and Algorithm 4 lines 2–5: when n exceeds N,
    * special-compact every level, square N and recompute (k, B) in place.
    */
  private def growBound(): Unit = {
    specialCompactAll()
    while (bound < count) bound = square(bound)
    k = profile.sectionSize(bound, eps, delta)
    sections = profile.numSections(bound, k)
    levels.foreach(_.setParams(k, sections))
    compressAll()
  }

  private def square(x: Long): Long =
    if (x >= 3037000499L) Long.MaxValue else x * x
}

object ReqSketch {

  /** SplitMix64's increment (2^64 / the golden ratio). */
  private[core] val Gamma = 0x9e3779b97f4a7c15L

  /** SplitMix64 finalizer — decorrelates nearby seeds and coin counters. */
  def scramble(seed: Long): Long = {
    var z = seed + Gamma
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  /** A non-zero coin seed from entropy, for a sketch built with seed 0. */
  private[core] def entropySeed(): Long = java.util.concurrent.ThreadLocalRandom.current().nextLong() | 1L

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
  // (`RelativeCompactor.writeRecord`), each a sorted run whose key gaps are
  // bit-packed in blocks of 64, each block at its own width. Version 2 (one
  // width per level) and version 1 (float64 items) are still read.

  private val Magic = 0x52455153 // "REQS"
  private val Version: Byte = 3
  private val HeaderBytes = 63
  private val MaxLevels = 64

  /** Encodes the sketch in the versioned wire format. Sorts each level's
    * pending tail first, which leaves every later answer and compaction as
    * it would have been. Writes each level once, into a buffer sized by
    * `RelativeCompactor.maxRecordBytes`, and returns a copy of what it
    * wrote.
    */
  def toBytes(s: ReqSketch): Array[Byte] = {
    val out = ByteBuffer.allocate(Math.toIntExact(HeaderBytes + s.levels.iterator.map(_.maxRecordBytes).sum))
    val (tag, fixedK) = s.profile match {
      case Practical => (0, 0)
      case Theory    => (1, 0)
      case FixedK(k) => (2, k)
    }
    out.putInt(Magic).put(Version).put(0.toByte).putDouble(s.eps).putDouble(s.delta)
      .put(tag.toByte).putInt(fixedK).putLong(s.coinSeed).putLong(s.count).putLong(s.bound)
      .putInt(s.k).putInt(s.sections).putInt(s.levels.size)
    s.levels.foreach(_.writeRecord(out))
    java.util.Arrays.copyOf(out.array(), out.position())
  }

  /** Decodes `toBytes` output. Foreign bytes fail with an `IOException`:
    * `EOFException` when truncated, `StreamCorruptedException` for a wrong
    * magic or trailing bytes, `InvalidObjectException` for an unknown
    * version, flags or profile, or invalid parameters, counts or levels
    * (among them a bound N below the profile's initial bound, which no
    * encoder writes, and where squaring never grows N = 0 or 1, and a k or
    * section count other than the profile's for ε, δ and N), each raised
    * before anything is allocated for it, or for keys past `Long.MaxValue`,
    * a NaN item (which `update` never stores) or a stored weight
    * Σ_h 2^h·size_h above `Long.MaxValue`, checked as each level is read.
    * A level is allocated at most B keys, the capacity that ε, δ and N fix;
    * a record of equal keys claims them in one width byte per 64 keys (all
    * of them in 21 bytes in version 2), so B, not the input's length, bounds
    * what decoding allocates. Version 1 and version 2 bytes decode to the
    * same sketch as version 3.
    */
  def fromBytes(b: Array[Byte]): ReqSketch = {
    val in = ByteBuffer.wrap(b)
    RelativeCompactor.need(in, HeaderBytes)
    if (in.getInt() != Magic) throw new StreamCorruptedException("not a REQ sketch: wrong magic")
    val version = in.get()
    if (version < 1 || version > Version)
      throw new InvalidObjectException(s"unsupported REQ sketch version $version (expected 1 to $Version)")
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
    if (n < 0 || bound < n || bound < profile.initialBound(eps, delta))
      throw new InvalidObjectException(s"invalid n=$n N=$bound: need 0 <= n <= N and N at least " +
        s"the initial bound ${profile.initialBound(eps, delta)}")
    val (k, sections, numLevels) = (in.getInt(), in.getInt(), in.getInt())
    // The constructor and `growBound` derive k and sections from N, and a
    // level record may claim up to B = 2·k·sections keys in a few bytes.
    val profileK = profile.sectionSize(bound, eps, delta)
    if (k != profileK || sections != profile.numSections(bound, k))
      throw new InvalidObjectException(s"k=$k numSections=$sections differ from the profile's " +
        s"k=$profileK numSections=${profile.numSections(bound, profileK)} for N=$bound")
    if (numLevels < 1 || numLevels > MaxLevels)
      throw new InvalidObjectException(s"level count $numLevels outside [1, $MaxLevels]")
    val s = try new ReqSketch(eps, delta, profile, seed) catch {
      case e: IllegalArgumentException => throw new InvalidObjectException(e.getMessage)
    }
    s.count = n
    s.bound = bound
    s.k = k
    s.sections = sections
    s.levels.clear()
    val maxKey = RelativeCompactor.key(Double.PositiveInfinity) // every key above it is a NaN
    var weight = 0L // Σ 2^h·size_h so far: every rank must fit a Long
    for (h <- 0 until numLevels) {
      val level =
        if (version == 1) RelativeCompactor.readV1(in, k, sections)
        else RelativeCompactor.read(in, k, sections, version)
      if (level.countAtMost(maxKey) < level.size)
        throw new InvalidObjectException(s"NaN item at level $h")
      if (level.size > ((Long.MaxValue - weight) >> h))
        throw new InvalidObjectException(s"stored weight overflows a Long at level $h")
      weight += level.size.toLong << h
      s.levels += level
    }
    if (in.hasRemaining)
      throw new StreamCorruptedException(s"${in.remaining} trailing bytes after a REQ sketch")
    s
  }
}
