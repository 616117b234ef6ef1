package repro.core

import java.lang.Double.{doubleToRawLongBits, longBitsToDouble}

/** `acos` ported from fdlibm 5.3 `e_acos.c`, the algorithm that
  * `java.lang.StrictMath#acos` is specified to follow, so the two agree bit
  * for bit. On JDK 17 the JDK's own `acos` is a native fdlibm call, slow for
  * |x| > 1/2, which is where near pairs under the angular metric land; the
  * port is plain JIT-compiled arithmetic. Constants are fdlibm's, as exact
  * bit patterns. fdlibm's software `sqrt` is replaced by `math.sqrt`: both are
  * correctly rounded, so the results do not change.
  *
  * Method (from `e_acos.c`):
  *  - |x| < 1/2: `acos(x) = pi/2 - (x + x*x^2*R(x^2))`;
  *  - x >= 1/2: `acos(x) = 2*asin(sqrt((1-x)/2)) = 2f + (2c + 2s*z*R(z))`,
  *    with `z = (1-x)/2`, `s = sqrt(z)`, `f` = `s` with its low word cleared
  *    and `c = (z-f*f)/(s+f)` the correction that makes `f + c ~ sqrt(z)`;
  *  - x <= -1/2: `acos(x) = pi - 2*asin(sqrt((1-|x|)/2))`;
  *  - NaN and |x| > 1 give NaN; `acos(1) = 0`, `acos(-1) = pi`.
  *
  * Original notice of `e_acos.c`:
  * {{{
  * Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
  *
  * Developed at SunSoft, a Sun Microsystems, Inc. business.
  * Permission to use, copy, modify, and distribute this
  * software is freely granted, provided that this notice
  * is preserved.
  * }}}
  */
object Acos {
  private val pi = longBitsToDouble(0x400921FB54442D18L) // 3.14159265358979311600e+00
  private val pio2Hi = longBitsToDouble(0x3FF921FB54442D18L) // 1.57079632679489655800e+00
  private val pio2Lo = longBitsToDouble(0x3C91A62633145C07L) // 6.12323399573676603587e-17
  private val pS0 = longBitsToDouble(0x3FC5555555555555L) // 1.66666666666666657415e-01
  private val pS1 = longBitsToDouble(0xBFD4D61203EB6F7DL) // -3.25565818622400915405e-01
  private val pS2 = longBitsToDouble(0x3FC9C1550E884455L) // 2.01212532134862925881e-01
  private val pS3 = longBitsToDouble(0xBFA48228B5688F3BL) // -4.00555345006794114027e-02
  private val pS4 = longBitsToDouble(0x3F49EFE07501B288L) // 7.91534994289814532176e-04
  private val pS5 = longBitsToDouble(0x3F023DE10DFDF709L) // 3.47933107596021167570e-05
  private val qS1 = longBitsToDouble(0xC0033A271C8A2D4BL) // -2.40339491173441421878e+00
  private val qS2 = longBitsToDouble(0x40002AE59C598AC8L) // 2.02094576023350569471e+00
  private val qS3 = longBitsToDouble(0xBFE6066C1B8D0159L) // -6.88283971605453293030e-01
  private val qS4 = longBitsToDouble(0x3FB3B8C5B12E9282L) // 7.70381505559019352791e-02

  /** fdlibm's rational approximation `R(z) = p/q` shared by all branches. */
  private def rational(z: Double): Double = {
    val p = z * (pS0 + z * (pS1 + z * (pS2 + z * (pS3 + z * (pS4 + z * pS5)))))
    val q = 1.0 + z * (qS1 + z * (qS2 + z * (qS3 + z * qS4)))
    p / q
  }

  def apply(x: Double): Double = {
    val bits = doubleToRawLongBits(x)
    val hx = (bits >>> 32).toInt
    val ix = hx & 0x7fffffff
    if (ix >= 0x3ff00000) { // |x| >= 1, or NaN
      if (((ix - 0x3ff00000) | bits.toInt) == 0) { // |x| == 1
        if (hx > 0) 0.0 else pi + 2.0 * pio2Lo
      } else (x - x) / (x - x)
    } else if (ix < 0x3fe00000) { // |x| < 0.5
      if (ix <= 0x3c600000) pio2Hi + pio2Lo // |x| <= 2^-57
      else pio2Hi - (x - (pio2Lo - x * rational(x * x)))
    } else if (hx < 0) { // x <= -0.5
      val z = (1.0 + x) * 0.5
      val s = math.sqrt(z)
      val w = rational(z) * s - pio2Lo
      pi - 2.0 * (s + w)
    } else { // x >= 0.5
      val z = (1.0 - x) * 0.5
      val s = math.sqrt(z)
      val df = longBitsToDouble(doubleToRawLongBits(s) & 0xFFFFFFFF00000000L)
      val c = (z - df * df) / (s + df)
      val w = rational(z) * s + c
      2.0 * (df + w)
    }
  }
}
