package repro.core

import java.io.{EOFException, InvalidObjectException}
import java.nio.{ByteBuffer, ByteOrder}

/** One level of the REQ sketch: the relative-compactor of Algorithm 1.
  *
  * The buffer has capacity `B = 2·k·numSections`. Its lowest-ranked half
  * (B/2 items) is never touched by a scheduled compaction; the upper half is
  * divided into `numSections` sections of `k` items, numbered from the
  * largest down. A scheduled compaction involves the top
  * `L = (z(C)+1)·k` items where `z(C)` is the number of trailing ones in the
  * binary representation of the schedule state `C` — the derandomized
  * exponential schedule that yields the paper's `R_h(y)/k` bound on
  * important steps (Lemma 5 / Fact 4). The leftmost section
  * (index `numSections`) is reserved for special compactions, which keep
  * only the `B/2` smallest items (Appendix C, eq. 15).
  *
  * Items above index `B` (possible transiently during merges) are always
  * included in a compaction (Algorithm 4). Both scheduled and special
  * compactions advance `C`; merge combines states with bitwise OR
  * (Fact 15/18).
  *
  * Items live in one growable `Array[Long]` of keys (`RelativeCompactor.key`),
  * whose signed order is the total order of `java.util.Arrays.sort` on
  * doubles (−0.0 < 0.0, NaN last): a sorted main run, a sorted short run,
  * then the unsorted tail inserted since the last compaction. `insert`
  * encodes; every merge, compaction and search compares keys as longs, and
  * the level record carries them as keys. A compaction sorts only the tail
  * (left as is when already ascending, bucket- or radix-sorted otherwise)
  * and merges it into the short run, then takes its range from the tops of
  * both runs in one descending walk, so its output equals that of a full
  * sort of the buffer. A run that is already sorted (a compaction output,
  * or a merged level) is merged in at once by `mergeKeys`: into the short
  * run, or into the main run when it is at least half the main run's
  * length. The short run folds into the main run when it reaches half the
  * main run's length, and whenever a reader needs the level as one run.
  * The coin that picks odd/even survivors is supplied
  * by the caller, which derives it from the level and its state.
  */
final class RelativeCompactor(var k: Int, var numSections: Int) {
  import RelativeCompactor._

  require(validParams(k, numSections), paramsMessage(k, numSections))

  /** Keys: `buf(0 until main)` is the main run, `buf(main until sorted)`
    * the short run, `buf(sorted until len)` the unsorted tail.
    */
  private var buf: Array[Long] = Array.emptyLongArray
  private var len: Int = 0
  private var main: Int = 0
  private var sorted: Int = 0

  /** Compaction-schedule state C (Algorithm 1 line 3). */
  var state: Long = 0L

  /** Buffer capacity B = 2·k·numSections. */
  def capacity: Int = 2 * k * numSections

  def size: Int = len

  def isAtCapacity: Boolean = len >= capacity

  def insert(x: Double): Unit = {
    if (len == buf.length) grow(len + 1)
    buf(len) = key(x)
    len += 1
  }

  /** Merges the ascending keys `run(0 until n)` into the level. The pending
    * tail is sorted first, which is the sort the next compaction would do. A
    * run at least half the main run's length is merged into the main run,
    * any other into the short run.
    */
  private[core] def mergeKeys(run: Array[Long], n: Int): Unit = {
    sortTail()
    if (len + n > buf.length) grow(len + n)
    if (2 * n >= main) {
      System.arraycopy(buf, main, buf, main + n, len - main)
      backMerge(run, n, 0, main)
      main += n
    } else backMerge(run, n, main, len)
    len += n
    sorted = len
    foldIfLong()
  }

  /** The level as one ascending run of keys, `buf(0 until size)`. The tail
    * sort is the one the next compaction would do, and the fold leaves the
    * multiset as it was, so the level's future is unchanged. Read-only.
    */
  private[core] def sortedKeys: Array[Long] = { oneRun(); buf }

  /** Number of stored keys ≤ `ky`: a binary search over the level as one
    * run.
    */
  private[core] def countAtMost(ky: Long): Int = {
    oneRun()
    var lo = 0
    var hi = len
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (buf(mid) <= ky) lo = mid + 1 else hi = mid
    }
    lo
  }

  /** Number of trailing ones in the binary representation of `c`. */
  def trailingOnes(c: Long): Int = java.lang.Long.numberOfTrailingZeros(~c)

  /** Number of sections the next scheduled compaction involves:
    * z(C)+1 clamped to `numSections − 1` (the last section is special-only;
    * Observation 17 guarantees the clamp is never active in the streaming
    * setting and only defends against adversarial merge orders).
    */
  def nextCompactionSections: Int =
    math.min(trailingOnes(state) + 1, math.max(1, numSections - 1))

  /** Index, in the sorted order, where the next scheduled compaction's
    * range starts: `B − L`.
    */
  private[core] def scheduledStart: Int = capacity - nextCompactionSections * k

  /** Compacts the suffix of the sorted order starting at 0-based index
    * `from`: promotes a uniformly random odd/even half of it (an odd-sized
    * range promotes ⌊c/2⌋ or ⌈c/2⌉ items — unbiased, Algorithm 4 line 30)
    * and merges the promoted keys into `above`, which is evaluated only when
    * there are some. From `scheduledStart` this is the scheduled compaction
    * (Algorithm 1 lines 6–13, Algorithm 4 line 17), which keeps the lowest
    * `B − L` items; from `capacity / 2` it is the special compaction
    * (Appendix C), which keeps the B/2 smallest and is a no-op at or below
    * B/2 items. An empty range is a no-op that leaves the state as it is and
    * never evaluates `coin`; any other evaluates it once, before the state
    * advances. A range wholly in the main run is a strided copy from it; any
    * other is walked down from the tops of both runs, equal keys taking the
    * main run's below the short run's. The short run then moves down onto
    * what is left of the main run.
    */
  private[core] def compactInto(from: Int, coin: => Boolean)(above: => RelativeCompactor): Unit = {
    val lo = math.max(0, math.min(from, len))
    val count = len - lo
    if (count <= 0) return
    sortTail()
    val offset = if (coin) 1 else 0
    val n = (count - offset + 1) / 2
    val s = scratch.get()
    s.reserveOut(n)
    val out = s.out
    var i = main - 1 // the main run's highest key left
    var j = len - 1  // the short run's highest key left
    if (count <= main && (j < main || buf(j) < buf(main - count))) {
      var r = main - count + offset
      var o = 0
      while (r < main) { out(o) = buf(r); r += 2; o += 1 }
      i = main - count - 1
    } else {
      var q = count - 1 - offset // rank in the range, above the coin's offset
      while (q >= -offset) {
        val x =
          if (i >= 0 && (j < main || buf(i) > buf(j))) { i -= 1; buf(i + 1) }
          else { j -= 1; buf(j + 1) }
        if ((q & 1) == 0) out(q >> 1) = x
        q -= 1
      }
    }
    System.arraycopy(buf, main, buf, i + 1, j - main + 1)
    len = lo
    main = i + 1
    sorted = lo
    state += 1
    if (n > 0) above.mergeKeys(out, n)
  }

  /** Sorts the tail and merges it into the short run. */
  private def sortTail(): Unit = {
    val n = len - sorted
    if (n == 0) return
    val s = scratch.get()
    s.reserveKeys(n)
    System.arraycopy(buf, sorted, s.a, 0, n)
    backMerge(sortKeys(s, n), n, main, sorted)
    sorted = len
    foldIfLong()
  }

  /** Folds the short run into the main run once it is half as long. */
  private def foldIfLong(): Unit = if (2 * (sorted - main) >= main) fold()

  /** Merges the short run into the main run: the level's sorted keys are
    * then one run.
    */
  private def fold(): Unit = {
    val n = sorted - main
    if (n > 0 && main > 0) {
      val s = scratch.get()
      s.reserveRun(n)
      System.arraycopy(buf, main, s.run, 0, n)
      backMerge(s.run, n, 0, main)
    }
    main = sorted
  }

  /** Sorts the tail and folds: the level is one sorted run. */
  private def oneRun(): Unit = { sortTail(); fold() }

  /** Merges `run(0 until n)` from the back into the sorted run
    * `buf(lo until hi)`, which then fills `buf(lo until hi + n)`; that space
    * must be free and `run` must not be `buf`. One key at a time, ties
    * keeping level keys below run keys.
    */
  private def backMerge(run: Array[Long], n: Int, lo: Int, hi: Int): Unit = {
    var i = hi - 1
    var j = n - 1
    var w = hi + n - 1
    while (j >= 0) {
      val x = run(j)
      if (i >= lo && buf(i) > x) { buf(w) = buf(i); i -= 1 }
      else { buf(w) = x; j -= 1 }
      w -= 1
    }
  }

  private def grow(minLength: Int): Unit =
    buf = java.util.Arrays.copyOf(buf, math.max(minLength, math.max(16, 2 * buf.length)))

  /** Merge-time parameter refresh (N-squaring): capacity grows, items and
    * state are retained.
    */
  def setParams(newK: Int, newNumSections: Int): Unit = {
    require(validParams(newK, newNumSections), paramsMessage(newK, newNumSections))
    k = newK
    numSections = newNumSections
  }

  /** Combine schedule states by bitwise OR (Algorithm 4 line 11). */
  def absorbState(otherState: Long): Unit = state |= otherState

  // ------------------------------------------------------------ level record
  //
  // The one on-wire definition of a level, used by `ReqSketch.toBytes`
  // and `read`: `size` (int32) and `C` (int64); when `size > 0`, the first
  // key (int64), then the `size − 1` gaps between adjacent keys in blocks of
  // `GapBlock`, the last block holding the rest (a one-key record has one
  // empty block). A block is a width byte `w`, the bit length of its widest
  // gap, and its gaps, `w` bits each, packed low bit first into ⌈w·gaps/8⌉
  // little-endian bytes, so a full block is exactly `w` 64-bit words. The
  // level is written as one sorted run, so every gap is non-negative; `k`
  // and `numSections` come from the sketch header. `writeRecord` writes a
  // record in one pass, never knowing its exact size beforehand, into room
  // for `maxRecordBytes`.

  /** Bytes `writeRecord` writes at most: 12 for the count and state, then 8
    * for the first key and at most 8 per gap and 1 per block.
    */
  private[core] def maxRecordBytes: Long = 12L + 9L * len

  /** Writes the level record to `out`, which must be big-endian (a
    * `ByteBuffer`'s default order), in one pass over the level read as one
    * run: the tail sort is the one the next compaction would do, so the
    * level's future is unchanged. Each block's width is the OR of its gaps,
    * taken just before they are packed through a 64-bit accumulator that is
    * put byte-reversed, so little-endian, whenever it is full, which a full
    * block leaves empty.
    */
  private[core] def writeRecord(out: ByteBuffer): Unit = {
    oneRun()
    out.putInt(len).putLong(state)
    if (len == 0) return
    out.putLong(buf(0))
    var i = 1
    do {
      val end = math.min(len, i + GapBlock)
      var gaps = 0L
      var j = i
      while (j < end) { gaps |= buf(j) - buf(j - 1); j += 1 }
      val w = 64 - java.lang.Long.numberOfLeadingZeros(gaps)
      out.put(w.toByte)
      var acc = 0L // the packed bits not yet written, `used` of them
      var used = 0
      while (i < end) {
        val gap = buf(i) - buf(i - 1)
        acc |= gap << used
        used += w
        if (used >= 64) {
          out.putLong(java.lang.Long.reverseBytes(acc))
          used -= 64
          acc = if (used == 0) 0L else gap >>> (w - used)
        }
        i += 1
      }
      while (used > 0) { out.put(acc.toByte); acc >>>= 8; used -= 8 }
    } while (i < len)
  }

  /** Makes the ascending `keys` the level's items, with schedule state `c`. */
  private def load(keys: Array[Long], c: Long): RelativeCompactor = {
    buf = keys
    len = keys.length
    main = len
    sorted = len
    state = c
    this
  }
}

object RelativeCompactor {

  /** Tails shorter than this go to `Arrays.sort`. */
  private val SmallTail = 64

  /** 2^52 − 1, the number of negative-NaN bit patterns. */
  private val NaNShift = (1L << 52) - 1

  /** Order-preserving key of the double `x`, a bijection on all 2^64 raw
    * bit patterns: the signed order of keys is `Arrays.sort`'s order of
    * doubles (−0.0 < 0.0), and every NaN sorts above +∞. Flipping the low
    * 63 bits of a negative pattern orders the negatives; subtracting
    * `NaNShift` then rotates the negative-NaN patterns, the lowest after the
    * flip, past `Long.MaxValue` to the top.
    */
  @inline private[core] def key(x: Double): Long = {
    val b = java.lang.Double.doubleToRawLongBits(x)
    (b ^ ((b >> 63) & Long.MaxValue)) - NaNShift
  }

  /** The double with key `k`: the inverse of `key` on raw bit patterns. */
  @inline private[core] def item(k: Long): Double = {
    val b = k + NaNShift
    java.lang.Double.longBitsToDouble(b ^ ((b >> 63) & Long.MaxValue))
  }

  /** Whether a level may have section size `k` and `sections` sections: k
    * even and ≥ 2, at least 2 sections, and a capacity 2·k·sections that
    * fits an `Int`.
    */
  private def validParams(k: Int, sections: Int): Boolean =
    k >= 2 && k % 2 == 0 && sections >= 2 && 2L * k * sections <= Int.MaxValue

  private def paramsMessage(k: Int, sections: Int): String =
    s"invalid compactor parameters k=$k numSections=$sections: need k even >= 2, " +
      "numSections >= 2 and 2·k·numSections <= Int.MaxValue"

  /** Per-thread scratch, shared by every level of every sketch the thread
    * runs: the tail sort's two key arrays and radix histograms, the fold's
    * copy of a short run, and the keys a compaction promotes, which are
    * merged into the level above while the sort and fold arrays are in use.
    * Each array is as long as the longest use so far.
    */
  private final class Scratch {
    var a: Array[Long] = Array.emptyLongArray
    var b: Array[Long] = Array.emptyLongArray
    var run: Array[Long] = Array.emptyLongArray
    var out: Array[Long] = Array.emptyLongArray
    val counts = new Array[Int](8 * 256)

    /** Grows the sort's key arrays to hold at least `n` keys. */
    def reserveKeys(n: Int): Unit = if (a.length < n) {
      a = new Array[Long](grown(a.length, n))
      b = new Array[Long](a.length)
    }

    /** Grows the fold's array to hold at least `n` keys. */
    def reserveRun(n: Int): Unit = if (run.length < n) run = new Array[Long](grown(run.length, n))

    /** Grows the compaction output to hold at least `n` keys. */
    def reserveOut(n: Int): Unit = if (out.length < n) out = new Array[Long](grown(out.length, n))

    private def grown(length: Int, n: Int): Int =
      math.max(n, math.min(2L * length, Int.MaxValue - 8).toInt)
  }

  private val scratch = ThreadLocal.withInitial[Scratch](() => new Scratch)

  /** Tails up to this long try `bucketSort` before the radix sort. */
  private val BucketTail = 4096

  /** Sorts the keys `s.a(0 until n)` and returns the array holding them
    * sorted. A short tail goes to `Arrays.sort`; one scan of any other
    * finds whether it is already ascending (left as is) and the bits on
    * which some key differs from the first; an unsorted one goes to
    * `bucketSort` and, when that declines, to the radix sort.
    */
  private def sortKeys(s: Scratch, n: Int): Array[Long] = {
    val a = s.a
    if (n < SmallTail) { java.util.Arrays.sort(a, 0, n); return a }
    var ascending = true
    var diff = 0L // the bits on which some key differs from the first
    var i = 1
    while (i < n) {
      if (a(i - 1) > a(i)) ascending = false
      diff |= a(i) ^ a(0)
      i += 1
    }
    if (ascending) return a
    val keys = if (n <= BucketTail) bucketSort(s, n, diff) else null
    if (keys != null) keys else radixSort(s, n)
  }

  /** Sorts the keys `s.a(0 until n)` into `s.b` by one MSD pass on a digit
    * that starts at the highest bit on which they differ (`diff`), then an
    * insertion sort, which moves no key out of its bucket. Digits are taken
    * from `key ^ Long.MinValue`, whose unsigned order is the keys' signed
    * order. The digit has ⌈log2 n⌉ + 2 bits, from 8 to 11, so a spread-out
    * tail leaves about a quarter of a key per bucket. Returns `s.b`, or
    * null, having sorted nothing, as soon as a bucket holds more than
    * `24 + n/32` keys: a clustered tail is declined after about that many
    * keys, not a full pass.
    */
  private def bucketSort(s: Scratch, n: Int, diff: Long): Array[Long] = {
    val (src, dst, counts) = (s.a, s.b, s.counts)
    val bits = math.min(11, math.max(8, 34 - Integer.numberOfLeadingZeros(n - 1)))
    val mask = (1 << bits) - 1
    val shift = math.max(0, 64 - bits - java.lang.Long.numberOfLeadingZeros(diff))
    val limit = 24 + n / 32
    java.util.Arrays.fill(counts, 0, mask + 1, 0)
    var i = 0
    while (i < n) {
      val slot = ((src(i) ^ Long.MinValue) >>> shift).toInt & mask
      counts(slot) += 1
      if (counts(slot) > limit) return null
      i += 1
    }
    var sum = 0
    var b = 0
    while (b <= mask) {
      val c = counts(b)
      counts(b) = sum
      sum += c
      b += 1
    }
    i = 0
    while (i < n) {
      val k = src(i)
      val slot = ((k ^ Long.MinValue) >>> shift).toInt & mask
      dst(counts(slot)) = k
      counts(slot) += 1
      i += 1
    }
    i = 1
    while (i < n) {
      val k = dst(i)
      var j = i - 1
      while (j >= 0 && dst(j) > k) { dst(j + 1) = dst(j); j -= 1 }
      dst(j + 1) = k
      i += 1
    }
    dst
  }

  /** LSD radix sort of the keys `s.a(0 until n)` on the 8-bit digits of
    * `key ^ Long.MinValue`, between `s.a` and `s.b`: one pass builds all
    * eight histograms, and a digit on which every key agrees is skipped.
    * Returns the array holding the result.
    */
  private def radixSort(s: Scratch, n: Int): Array[Long] = {
    val counts = s.counts
    java.util.Arrays.fill(counts, 0)
    var src = s.a
    var dst = s.b
    var i = 0
    while (i < n) {
      val u = src(i) ^ Long.MinValue
      var d = 0
      while (d < 8) {
        counts((d << 8) + ((u >>> (d << 3)).toInt & 0xff)) += 1
        d += 1
      }
      i += 1
    }
    var d = 0
    while (d < 8) {
      val base = d << 8
      val shift = d << 3
      if (counts(base + (((src(0) ^ Long.MinValue) >>> shift).toInt & 0xff)) != n) {
        var sum = 0
        var b = 0
        while (b < 256) {
          val c = counts(base + b)
          counts(base + b) = sum
          sum += c
          b += 1
        }
        i = 0
        while (i < n) {
          val k = src(i)
          val slot = base + (((k ^ Long.MinValue) >>> shift).toInt & 0xff)
          dst(counts(slot)) = k
          counts(slot) += 1
          i += 1
        }
        val t = src; src = dst; dst = t
      }
      d += 1
    }
    src
  }

  /** The most items a level record may hold: their bytes fit one array. */
  private val MaxItems: Int = Int.MaxValue / 8

  /** Gaps per block of a level record. */
  private val GapBlock = 64

  /** Blocks of a record of `size` keys: none when it is empty, and at least
    * one otherwise.
    */
  private def blocks(size: Int): Int = if (size == 0) 0 else 1 + math.max(0, size - 2) / GapBlock

  /** Bytes of `gaps` packed gaps of `w` bits. */
  private def packedBytes(w: Int, gaps: Int): Long = (w.toLong * gaps + 7) >>> 3

  /** Reads the keys of a level record of `size` ≥ 1 keys, after its count
    * and state. Each block's gaps (64 of them, the last block's excepted,
    * take exactly `w` words) are read in one loop with `Int` offsets: when
    * `w` ≤ 56 a gap is one little-endian 8-byte load from its first byte, a
    * shift, a mask and an add; a wider gap also takes the ninth byte. A
    * block whose loads would pass the input's limit is read from a
    * zero-padded copy of its bytes. A sum past `Long.MaxValue` wraps below
    * the key before it, which one flag collects for a single check at the
    * end.
    */
  private def readKeys(in: ByteBuffer, size: Int): Array[Long] = {
    need(in, 8L + blocks(size)) // the first key and a width byte per block
    val keys = new Array[Long](size)
    var prev = in.getLong()
    keys(0) = prev
    val b = in.array()
    val end = in.arrayOffset() + in.limit()
    var base = in.arrayOffset() + in.position() // the next block's width byte
    var wrapped = false
    var i = 1
    do {
      need(1, end - base)
      val w = b(base) & 0xff
      if (w > 64) throw new InvalidObjectException(s"gap width $w above 64")
      val n = math.min(GapBlock, size - i)
      val bytes = packedBytes(w, n)
      base += 1
      need(bytes, end - base)
      if (w == 0) java.util.Arrays.fill(keys, i, i + n, prev)
      else {
        val mask = -1L >>> (64 - w)
        var src = b // holds the block's gaps from index `at`
        var at = base
        if (end - base < bytes + 8) {
          src = new Array[Byte](bytes.toInt + 8)
          System.arraycopy(b, base, src, 0, bytes.toInt)
          at = 0
        }
        var j = 0
        if (w <= 56) while (j < n) {
          val bit = j * w
          val x = prev + ((getLongLE(src, at + (bit >>> 3)) >>> (bit & 7)) & mask)
          wrapped |= x < prev
          keys(i + j) = x
          prev = x
          j += 1
        } else while (j < n) {
          val bit = j * w
          val p = at + (bit >>> 3)
          val off = bit & 7
          val gap = (getLongLE(src, p) >>> off) | (src(p + 8) & 0xffL) << 1 << (63 - off)
          val x = prev + (gap & mask)
          wrapped |= x < prev
          keys(i + j) = x
          prev = x
          j += 1
        }
      }
      i += n
      base += bytes.toInt
    } while (i < size)
    in.position(base - in.arrayOffset())
    if (wrapped) throw new InvalidObjectException("level keys overflow Long.MaxValue")
    keys
  }

  /** Little-endian 8-byte loads at any index of a byte array. */
  private val LongLE: java.lang.invoke.VarHandle =
    java.lang.invoke.MethodHandles.byteArrayViewVarHandle(classOf[Array[Long]], ByteOrder.LITTLE_ENDIAN)

  @inline private def getLongLE(b: Array[Byte], i: Int): Long = LongLE.get(b, i): Long

  /** Reads one level record (see `writeRecord`) of a sketch whose levels
    * have section size `k` and `sections` sections. Parameters the
    * constructor would reject, an item count outside `[0, B]` or fewer
    * bytes than the first key and the width bytes are rejected before the
    * keys are allocated, a width above 64 or too few bytes as each block is
    * read, and keys past `Long.MaxValue` once all are read. `in` must be
    * backed by an array, as `ReqSketch.fromBytes`'s is.
    */
  def read(in: ByteBuffer, k: Int, sections: Int): RelativeCompactor = {
    need(in, 12)
    val (size, c) = (in.getInt(), in.getLong())
    if (!validParams(k, sections)) throw new InvalidObjectException(paramsMessage(k, sections))
    val maxSize = math.min(2L * k * sections, MaxItems)
    if (size < 0 || size > maxSize)
      throw new InvalidObjectException(s"compactor item count $size outside [0, $maxSize]")
    val keys = if (size == 0) Array.emptyLongArray else readKeys(in, size)
    new RelativeCompactor(k, sections).load(keys, c)
  }

  /** Fails with an `EOFException` unless `in` holds `bytes` more bytes. */
  private[core] def need(in: ByteBuffer, bytes: Long): Unit = need(bytes, in.remaining)

  private def need(bytes: Long, left: Long): Unit =
    if (left < bytes) throw new EOFException(s"need $bytes more bytes, $left left")
}
