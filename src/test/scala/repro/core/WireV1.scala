package repro.core

import java.nio.ByteBuffer

/** A writer of version 1 of the wire format, which `ReqSketch.fromBytes`
  * still decodes but `toBytes` no longer writes (DESIGN.md, Wire format):
  * the 63-byte header, then per level `k, size, numSections: int32,
  * C: int64` and `size` big-endian float64 items as one sorted run.
  */
object WireV1 {

  def toBytes(s: ReqSketch): Array[Byte] = {
    val out = ByteBuffer.allocate(63 + s.levels.iterator.map(20 + 8 * _.size).sum)
    val (tag, fixedK) = s.profile match {
      case Practical => (0, 0)
      case Theory    => (1, 0)
      case FixedK(k) => (2, k)
    }
    out.putInt(0x52455153).put(1.toByte).put(0.toByte).putDouble(s.eps).putDouble(s.delta)
      .put(tag.toByte).putInt(fixedK).putLong(s.seed).putLong(s.n).putLong(s.nBound)
      .putInt(s.sectionSize).putInt(s.bufferCapacity / (2 * s.sectionSize)).putInt(s.levels.size)
    for (level <- s.levels) {
      val keys = level.sortedKeys
      out.putInt(level.k).putInt(level.size).putInt(level.numSections).putLong(level.state)
      for (i <- 0 until level.size) out.putDouble(RelativeCompactor.item(keys(i)))
    }
    out.array()
  }
}
