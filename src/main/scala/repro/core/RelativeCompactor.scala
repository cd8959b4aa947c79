package repro.core

import java.io.{EOFException, InvalidObjectException}
import java.nio.ByteBuffer
import scala.collection.immutable.ArraySeq

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
  * Items live in a growable `Array[Double]`: a sorted prefix followed by the
  * unsorted tail inserted since the last compaction. A compaction sorts only
  * the tail and merges it into the prefix from the back, in the total order
  * of `java.util.Arrays.sort` (`java.lang.Double.compare`: −0.0 < 0.0, NaN
  * last), so the result equals a full sort of the buffer; the survivors are
  * then the sorted prefix. The coin that picks odd/even survivors is
  * supplied by the caller so the sketch owns a single RNG stream.
  */
final class RelativeCompactor(
    @transient var k: Int,
    @transient var numSections: Int
) extends Serializable {

  require(k >= 2 && k % 2 == 0, s"section size must be even >= 2, got $k")
  require(numSections >= 2, s"need >= 2 sections, got $numSections")

  /** Items: `buf(0 until sorted)` is sorted, `buf(sorted until len)` is not.
    * Java serialization writes the level record instead of these fields.
    */
  @transient private var buf: Array[Double] = Array.emptyDoubleArray
  @transient private var len: Int = 0
  @transient private var sorted: Int = 0

  /** Compaction-schedule state C (Algorithm 1 line 3). */
  @transient var state: Long = 0L

  /** Buffer capacity B = 2·k·numSections. */
  def capacity: Int = 2 * k * numSections

  def size: Int = len

  def isAtCapacity: Boolean = len >= capacity

  def insert(x: Double): Unit = {
    if (len == buf.length) grow(len + 1)
    buf(len) = x
    len += 1
  }

  def insertAll(xs: Array[Double]): Unit = {
    if (len + xs.length > buf.length) grow(len + xs.length)
    System.arraycopy(xs, 0, buf, len, xs.length)
    len += xs.length
  }

  /** Copy of the stored items (in no particular order). */
  def toArray: Array[Double] = java.util.Arrays.copyOf(buf, len)

  /** Immutable view of the stored items (in no particular order). */
  def items: IndexedSeq[Double] = ArraySeq.unsafeWrapArray(toArray)

  /** Number of stored items ≤ y. */
  def countAtMost(y: Double): Int = {
    var c = 0
    var i = 0
    while (i < len) { if (buf(i) <= y) c += 1; i += 1 }
    c
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

  /** Scheduled compaction (Algorithm 1 lines 6–13 / Algorithm 4 line 17).
    * Pre-condition: `size >= capacity`. Returns the promoted items (half of
    * the compacted range, odd or even indexed uniformly at random); the
    * lowest `B − L` items stay in the buffer.
    */
  def compact(rng: java.util.Random): Array[Double] = {
    require(isAtCapacity, s"compact() called on non-full buffer ($size < $capacity)")
    compactFrom(capacity - nextCompactionSections * k, rng)
  }

  /** Special compaction (Appendix C): keep only the B/2 smallest items,
    * compacting everything above. No-op (returns empty, state unchanged)
    * when at most B/2 items are stored.
    */
  def specialCompact(rng: java.util.Random): Array[Double] = {
    if (len <= capacity / 2) Array.emptyDoubleArray
    else compactFrom(capacity / 2, rng)
  }

  /** Compact the sorted suffix starting at 0-based index `from`; promote a
    * uniformly random odd/even half of it (an odd-sized range promotes
    * ⌊c/2⌋ or ⌈c/2⌉ items — unbiased, Algorithm 4 line 30).
    */
  private def compactFrom(from: Int, rng: java.util.Random): Array[Double] = {
    sortTail()
    val lo = math.max(0, math.min(from, len))
    val count = len - lo
    if (count <= 0) return Array.emptyDoubleArray
    val offset = if (rng.nextBoolean()) 1 else 0
    val out = new Array[Double]((count - offset + 1) / 2)
    var i = lo + offset
    var j = 0
    while (i < len) { out(j) = buf(i); i += 2; j += 1 }
    len = lo
    sorted = lo
    state += 1
    out
  }

  /** Sort the tail and merge it into the sorted prefix from the back. */
  private def sortTail(): Unit = {
    if (sorted == len) return
    java.util.Arrays.sort(buf, sorted, len)
    if (sorted > 0 && java.lang.Double.compare(buf(sorted - 1), buf(sorted)) > 0) {
      val tail = java.util.Arrays.copyOfRange(buf, sorted, len)
      var i = sorted - 1
      var j = tail.length - 1
      var w = len - 1
      while (j >= 0) {
        if (i >= 0 && java.lang.Double.compare(buf(i), tail(j)) > 0) {
          buf(w) = buf(i); i -= 1
        } else {
          buf(w) = tail(j); j -= 1
        }
        w -= 1
      }
    }
    sorted = len
  }

  private def grow(minLength: Int): Unit =
    buf = java.util.Arrays.copyOf(buf, math.max(minLength, math.max(16, 2 * buf.length)))

  /** Merge-time parameter refresh (N-squaring): capacity grows, items and
    * state are retained.
    */
  def setParams(newK: Int, newNumSections: Int): Unit = {
    require(newK >= 2 && newK % 2 == 0 && newNumSections >= 2)
    k = newK
    numSections = newNumSections
  }

  /** Combine schedule states by bitwise OR (Algorithm 4 line 11). */
  def absorbState(otherState: Long): Unit = state |= otherState

  // ------------------------------------------------------------ level record
  //
  // The one on-wire definition of a level, used by `ReqSketch.toBytes` and by
  // Java serialization of a compactor: `k`, `size`, `numSections` (int32),
  // `C` (int64), then `size` big-endian doubles written as one sorted run.

  /** Bytes `writeRecord` writes. */
  def recordBytes: Int = RelativeCompactor.RecordHeaderBytes + 8 * len

  /** Writes the level record. The pending tail is sorted first: that is the
    * sort the next compaction would do, so the level's future is unchanged
    * and a reader never re-sorts what was sorted here.
    */
  def writeRecord(out: ByteBuffer): Unit = {
    sortTail()
    out.putInt(k).putInt(len).putInt(numSections).putLong(state)
    out.asDoubleBuffer().put(buf, 0, len)
    out.position(out.position() + 8 * len)
  }

  /** Reads a record's fixed part into this level and returns its item count.
    * Invalid parameters or an item count outside `[0, B]` mean foreign bytes;
    * they are rejected before any item is allocated or read.
    */
  private def readRecordHeader(in: ByteBuffer): Int = {
    val (newK, size, sections, c) = (in.getInt(), in.getInt(), in.getInt(), in.getLong())
    if (newK < 2 || newK % 2 != 0 || sections < 2)
      throw new InvalidObjectException(s"invalid compactor parameters k=$newK numSections=$sections")
    val maxSize = math.min(2L * newK * sections, RelativeCompactor.MaxItems)
    if (size < 0 || size > maxSize)
      throw new InvalidObjectException(s"compactor item count $size outside [0, $maxSize]")
    k = newK
    numSections = sections
    state = c
    size
  }

  /** Reads `size` items. The sorted prefix is re-derived by one scan, never
    * taken from the bytes, so an unsorted record still compacts correctly.
    */
  private def readItems(in: ByteBuffer, size: Int): Unit = {
    buf = new Array[Double](size)
    in.asDoubleBuffer().get(buf)
    in.position(in.position() + 8 * size)
    len = size
    var i = math.min(1, size)
    while (i < size && java.lang.Double.compare(buf(i - 1), buf(i)) <= 0) i += 1
    sorted = i
  }

  /** Replaces this level with the record read from `in`. */
  private def readRecord(in: ByteBuffer): Unit = {
    RelativeCompactor.need(in, RelativeCompactor.RecordHeaderBytes)
    val size = readRecordHeader(in)
    RelativeCompactor.need(in, 8L * size)
    readItems(in, size)
  }

  private def writeObject(out: java.io.ObjectOutputStream): Unit = {
    out.defaultWriteObject()
    val record = ByteBuffer.allocate(recordBytes)
    writeRecord(record)
    out.write(record.array())
  }

  private def readObject(in: java.io.ObjectInputStream): Unit = {
    in.defaultReadObject()
    def read(bytes: Int): ByteBuffer = {
      val b = new Array[Byte](bytes)
      in.readFully(b)
      ByteBuffer.wrap(b)
    }
    val size = readRecordHeader(read(RelativeCompactor.RecordHeaderBytes))
    readItems(read(8 * size), size)
  }
}

object RelativeCompactor {

  /** Bytes of a level record before its items. */
  val RecordHeaderBytes: Int = 20

  /** The most items a level record may hold: their bytes fit one array. */
  private val MaxItems: Int = Int.MaxValue / 8

  /** Reads one level record (see `writeRecord`). */
  def read(in: ByteBuffer): RelativeCompactor = {
    val c = new RelativeCompactor(2, 2)
    c.readRecord(in)
    c
  }

  /** Fails with an `EOFException` unless `in` holds `bytes` more bytes. */
  private[core] def need(in: ByteBuffer, bytes: Long): Unit =
    if (in.remaining < bytes)
      throw new EOFException(s"need $bytes more bytes, ${in.remaining} left")
}
