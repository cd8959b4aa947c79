package repro.core

/** A writer of version 2 of the wire format, which `ReqSketch.fromBytes`
  * still decodes but `toBytes` no longer writes (DESIGN.md, Wire format):
  * the 63-byte header, then per level `size: int32, C: int64` and, when
  * size > 0, the first key (int64), one width byte w, the bit length of the
  * widest gap between adjacent keys, and the size − 1 gaps packed w bits
  * each, low bit first, little-endian.
  */
object WireV2 {

  def toBytes(s: ReqSketch): Array[Byte] = {
    val bytes = new java.io.ByteArrayOutputStream
    val out = new java.io.DataOutputStream(bytes)
    out.write(ReqSketch.toBytes(s), 0, 63)
    for (level <- s.levels) {
      val keys = level.sortedKeys.take(level.size)
      out.writeInt(keys.length)
      out.writeLong(level.state)
      if (keys.nonEmpty) {
        val gaps = keys.indices.drop(1).map(i => keys(i) - keys(i - 1))
        val w = 64 - java.lang.Long.numberOfLeadingZeros(gaps.foldLeft(0L)(_ | _))
        val bits = new java.util.BitSet
        for ((g, j) <- gaps.zipWithIndex; b <- 0 until w if ((g >>> b) & 1) == 1) bits.set(j * w + b)
        out.writeLong(keys(0))
        out.writeByte(w)
        out.write(java.util.Arrays.copyOf(bits.toByteArray, ((w.toLong * gaps.size + 7) / 8).toInt))
      }
    }
    val v2 = bytes.toByteArray
    v2(4) = 2 // the version byte
    v2
  }
}
